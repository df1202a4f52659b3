"""One-design simulation loops a single block call should replace."""


def collect(simulator, configs, trace):
    results = []
    for config in configs:
        results.extend(simulator.simulate(trace, [config]))
    return results


def collect_comp(simulator, configs, trace):
    return [simulator.simulate(trace, [c])[0] for c in configs]


def drain(ctx, benchmark, queue):
    while queue:
        ctx.simulate(benchmark, [queue.pop()])
