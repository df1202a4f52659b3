"""Batched timing kernel throughput: one block call vs a one-design loop.

Times the same block of designs two ways for every benchmark, both
through :meth:`Simulator.simulate`:

- **scalar** — the seed protocol: one ``simulate(trace, [config])`` call
  per design, each replaying the trace through the per-instruction
  python pipeline;
- **batch** — one ``simulate(trace, configs)`` call over the block of
  64, which replays the trace once with pipeline state carried as numpy
  arrays over the config axis.

Asserts the hard equivalence contract (identical cycles, ActivityCounts
and watts per design) and a 3x speedup floor at a batch of 64, then
writes ``BENCH_batchsim.json`` with per-benchmark timings, simulations
per second, and the speedup ratios.

It also records, per benchmark, the batch kernel's fixed cost: the B=1
ratio, :func:`~repro.simulator.batch.run_pipeline_batch` on one design
over ``simulate(trace, [config])`` on the same design.  That ratio is
recorded only; nothing asserts it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.designspace import sample_uar, sampling_space
from repro.simulator import Simulator, config_from_point, run_pipeline_batch
from repro.workloads import BENCHMARK_NAMES, get_profile

REPEATS = 3
BATCH = 64
SPEEDUP_FLOOR = 3.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batchsim.json"


def _scalar_pass(simulator, configs, trace):
    return [
        result
        for config in configs
        for result in simulator.simulate(trace, [config])
    ]


def _batch_pass(simulator, configs, trace):
    return simulator.simulate(trace, configs)


def _timed(fn, *args):
    best = None
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def test_batch_kernel_throughput(bench_scale):
    space = sampling_space()
    simulator = Simulator()
    configs = [
        config_from_point(space, point)
        for point in sample_uar(space, BATCH, seed=bench_scale.seed + 11)
    ]

    record = {
        "scale": bench_scale.name,
        "trace_length": bench_scale.trace_length,
        "batch": BATCH,
        "repeats": REPEATS,
        "speedup_floor": SPEEDUP_FLOOR,
        "benchmarks": {},
    }
    ratios = []
    b1_ratios = []
    for benchmark in BENCHMARK_NAMES:
        trace = simulator.trace_for(
            get_profile(benchmark), bench_scale.trace_length,
            seed=bench_scale.seed,
        )
        # Prime trace-derived state (access streams, predictor replays,
        # branch-warming streams) so both passes time steady-state work.
        _scalar_pass(simulator, configs[:1], trace)
        run_pipeline_batch(trace, configs[:1])

        scalar_results, scalar_elapsed = _timed(
            _scalar_pass, simulator, configs, trace
        )
        batch_results, batch_elapsed = _timed(
            _batch_pass, simulator, configs, trace
        )
        single_batch, b1_batch_elapsed = _timed(
            run_pipeline_batch, trace, configs[:1]
        )
        single_scalar, b1_scalar_elapsed = _timed(
            _scalar_pass, simulator, configs[:1], trace
        )

        # The hard equivalence contract, per design: exact, no tolerances.
        for got, want in zip(batch_results, scalar_results):
            assert float(got.watts) == float(want.watts)
        for got, want in zip(
            batch_results + single_batch, scalar_results + single_scalar
        ):
            assert got.cycles == want.cycles
            assert got.counts.as_dict() == want.counts.as_dict()

        scalar_sps = BATCH / scalar_elapsed if scalar_elapsed > 0 else float("inf")
        batch_sps = BATCH / batch_elapsed if batch_elapsed > 0 else float("inf")
        ratio = scalar_elapsed / batch_elapsed if batch_elapsed > 0 else float("inf")
        ratios.append(ratio)
        b1_ratio = b1_batch_elapsed / b1_scalar_elapsed
        b1_ratios.append(b1_ratio)
        record["benchmarks"][benchmark] = {
            "scalar_seconds": scalar_elapsed,
            "batch_seconds": batch_elapsed,
            "scalar_sims_per_second": scalar_sps,
            "batch_sims_per_second": batch_sps,
            "speedup": ratio,
            "b1_scalar_seconds": b1_scalar_elapsed,
            "b1_batch_seconds": b1_batch_elapsed,
            "b1_ratio": b1_ratio,
        }

    record["mean_speedup"] = float(np.mean(ratios))
    record["min_speedup"] = float(np.min(ratios))
    record["mean_b1_ratio"] = float(np.mean(b1_ratios))
    record["max_b1_ratio"] = float(np.max(b1_ratios))
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    for benchmark, row in record["benchmarks"].items():
        print(
            f"{benchmark:>6s}: scalar {row['scalar_sims_per_second']:>7,.0f} sims/s"
            f"  batch {row['batch_sims_per_second']:>7,.0f} sims/s"
            f"  speedup {row['speedup']:.1f}x"
            f"  B=1 batch/scalar {row['b1_ratio']:.1f}x"
        )
    print(
        f"wrote {RESULT_PATH.name} (mean speedup {record['mean_speedup']:.1f}x,"
        f" mean B=1 ratio {record['mean_b1_ratio']:.1f}x)"
    )
    assert record["mean_speedup"] >= SPEEDUP_FLOOR
