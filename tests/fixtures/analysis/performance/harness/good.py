"""Block and single-shot simulation uses that must stay silent."""


def batched(simulator, configs, trace):
    return simulator.simulate(trace, configs)


def batched_per_benchmark(ctx, benchmarks, points):
    return {b: ctx.simulate(b, points) for b in benchmarks}


def single(simulator, config, trace):
    return simulator.simulate(trace, [config])


def pair_per_benchmark(ctx, benchmarks, off, on):
    return [ctx.simulate(b, [off, on]) for b in benchmarks]
