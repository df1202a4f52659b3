"""Extending the suite with a custom workload.

The framework is not tied to the paper's nine benchmarks: any
:class:`~repro.workloads.WorkloadProfile` can be simulated, modeled and
optimized.  This example defines a synthetic "streamdb" workload (a
scan-heavy analytics kernel: streaming data, tiny code, modest ILP),
finds its efficiency-optimal core with the regression workflow, and
compares it against two suite benchmarks.

Run:  python examples/custom_workload.py
"""

from repro.designspace import DesignEncoder, exploration_space, sample_uar, sampling_space
from repro.harness import render_table
from repro.regression import fit_ols, performance_spec, power_spec
from repro.simulator import Simulator, config_from_point
from repro.workloads import WorkloadProfile, get_profile

STREAMDB = WorkloadProfile(
    name="streamdb",
    description="scan-heavy analytics kernel: streams tables, tiny code",
    mix={"int": 0.38, "int_mul": 0.02, "load": 0.34, "store": 0.08,
         "branch": 0.18},
    dep_distance_mean=6.0,
    second_operand_rate=0.45,
    load_chain_rate=0.05,
    branch_bias=0.95,          # loop branches dominate
    unpredictable_rate=0.06,   # predicate filters are mostly biased
    static_branches=96,
    # streaming reuse: strong block-level locality, then nothing until the
    # next pass over a table far larger than any cache (the long stratum
    # starts beyond the largest L2, so cache size barely matters)
    data_reuse_strata=((0.60, 24), (0.06, 512), (0.02, 40000), (0.32, 800000)),
    instr_reuse_strata=((0.99, 16), (0.01, 60)),
    ifetch_run_mean=13.0,
    data_footprint_blocks=262144,  # ~32MB of tables
    data_zipf=0.15,
    sequential_run_mean=32.0,
    instr_footprint_blocks=48,
    loop_length_mean=6.0,
    loop_iterations_mean=200.0,
    ref_instructions=2.4e9,
)


def fit_models_for(profile, simulator, space, points, trace_length=2000, seed=21):
    trace = simulator.trace_for(profile, trace_length, seed=seed)
    results = simulator.simulate(
        trace, [config_from_point(space, p) for p in points]
    )
    encoder = DesignEncoder(space)
    matrix = encoder.encode(points)
    data = {name: matrix[:, j] for j, name in enumerate(encoder.feature_names)}
    import numpy as np

    data["bips"] = np.array([r.bips for r in results])
    data["watts"] = np.array([r.watts for r in results])
    return fit_ols(performance_spec(), data), fit_ols(power_spec(), data)


def main() -> None:
    simulator = Simulator()
    space = sampling_space()
    explore = exploration_space()
    train_points = sample_uar(space, 120, seed=21)

    rows = []
    for profile in (STREAMDB, get_profile("mcf"), get_profile("gzip")):
        perf_model, power_model = fit_models_for(
            profile, simulator, space, train_points
        )
        # exhaustive-ish prediction over a slice of the exploration space
        candidates = sample_uar(explore, 4000, seed=22)
        encoder = DesignEncoder(explore)
        matrix = encoder.encode(candidates)
        columns = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
        bips = perf_model.predict(columns)
        watts = power_model.predict(columns)
        efficiency = bips**3 / watts
        best = int(efficiency.argmax())
        point = candidates[best]
        rows.append([
            profile.name,
            int(point["depth"]),
            int(point["width"]),
            int(point["gpr_phys"]),
            int(point["dl1_kb"]),
            point["l2_mb"],
            f"{bips[best]:.2f}",
            f"{watts[best]:.1f}",
            f"{perf_model.r_squared:.3f}",
        ])

    print(render_table(
        ["workload", "depth", "width", "regs", "d$KB", "L2MB",
         "bips", "watts", "perf R^2"],
        rows,
        title="Regression-predicted bips^3/w optimal cores (custom vs suite)",
    ))
    print(
        "\nstreamdb behaves like a streaming code: caches beyond the hot "
        "blocks buy little, so its optimum carries small arrays — compare "
        "mcf, whose pointer-chasing working set rewards the largest L2."
    )


if __name__ == "__main__":
    main()
