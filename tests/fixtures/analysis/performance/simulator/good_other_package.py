"""One-design loops outside harness/studies are not PERF001's business."""


def reference_loop(simulator, configs, trace):
    return [simulator.simulate(trace, [c]) for c in configs]
