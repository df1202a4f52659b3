"""Exploring the extended design space (the paper's future work).

Section 8 names two parameters the authors intended to add: cache
associativity and in-order execution.  This example trains the extended
regression models over the 9-parameter space and asks two questions the
original evaluation could not:

1. how much bips^3/w does out-of-order issue buy at each machine width?
2. when is higher d-L1 associativity worth its access-energy cost?

Run:  python examples/extended_space.py
"""

import numpy as np

from repro.designspace import DesignEncoder, extended_space, sample_uar
from repro.harness import render_table
from repro.regression import (
    extended_performance_spec,
    extended_power_spec,
    fit_ols,
)
from repro.simulator import Simulator, config_from_point
from repro.workloads import get_profile


def main() -> None:
    space = extended_space()
    print(f"extended space: {len(space):,} designs "
          f"({len(space.parameters)} parameters)\n")

    simulator = Simulator()
    points = sample_uar(space, 180, seed=31)
    configs = [config_from_point(space, p) for p in points]
    encoder = DesignEncoder(space)
    matrix = encoder.encode(points)

    models = {}
    for bench in ("gzip", "mesa"):
        trace = simulator.trace_for(get_profile(bench), 2500, seed=31)
        results = simulator.simulate(trace, configs)
        data = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
        data["bips"] = np.array([r.bips for r in results])
        data["watts"] = np.array([r.watts for r in results])
        models[bench] = (
            fit_ols(extended_performance_spec(), data),
            fit_ols(extended_power_spec(), data),
        )
        print(f"{bench}: perf R^2={models[bench][0].r_squared:.3f}, "
              f"power R^2={models[bench][1].r_squared:.3f}")

    def predict(bench, **overrides):
        base = space.snap(
            depth=18, width=4, gpr_phys=80, br_resv=12, il1_kb=64,
            dl1_kb=32, l2_mb=2.0, dl1_assoc=2, in_order=0,
        )
        point = base.replace(**overrides)
        m = encoder.encode([point])
        columns = {n: m[:, j] for j, n in enumerate(encoder.feature_names)}
        perf_model, power_model = models[bench]
        bips = float(perf_model.predict(columns)[0])
        watts = float(power_model.predict(columns)[0])
        return bips, watts, bips**3 / watts

    print("\n=== value of out-of-order issue, by width (predicted) ===")
    rows = []
    for bench in models:
        for width in (2, 4, 8):
            ooo = predict(bench, width=width, in_order=0)
            ino = predict(bench, width=width, in_order=1)
            rows.append([
                bench, width,
                f"{ooo[0]:.2f}", f"{ino[0]:.2f}",
                f"{ooo[2] / ino[2]:.2f}x",
            ])
    print(render_table(
        ["bench", "width", "OoO bips", "in-order bips", "OoO bips^3/w gain"],
        rows,
    ))

    print("\n=== d-L1 associativity sweep at 32KB (predicted) ===")
    rows = []
    for bench in models:
        for assoc in (1, 2, 4, 8):
            bips, watts, eff = predict(bench, dl1_assoc=assoc)
            rows.append([bench, assoc, f"{bips:.2f}", f"{watts:.1f}", f"{eff:.4f}"])
    print(render_table(
        ["bench", "ways", "bips", "watts", "bips^3/w"], rows
    ))


if __name__ == "__main__":
    main()
