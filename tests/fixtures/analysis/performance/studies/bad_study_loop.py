"""Study-layer one-design validation loop."""


def validate(ctx, benchmark, points):
    return [ctx.simulate(benchmark, [p])[0] for p in points]
