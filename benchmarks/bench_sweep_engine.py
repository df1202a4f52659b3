"""Sweep-engine throughput: blockwise engine vs the per-point path.

Times the same exhaustive characterization two ways for every benchmark:

- **per-point** — the pre-engine protocol: encode each design with
  :meth:`~repro.designspace.DesignEncoder.encode_point` (a python loop
  over points), predict the whole table at once, then reduce (frontier +
  argmax);
- **blockwise** — :func:`~repro.harness.sweep.run_sweep` with the
  streaming :class:`ParetoFrontierReducer` and :class:`TopKReducer`.

Asserts the two paths agree exactly (same frontier indices, same argmax
design) and that the engine clears a 3x throughput floor, then writes
``BENCH_sweep.json`` with points/sec, the speedup ratio, and peak
allocation footprints (tracemalloc, measured in separate untimed passes).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.designspace import DesignEncoder, PointSet
from repro.harness.sweep import (
    CollectReducer,
    ParetoFrontierReducer,
    TopKReducer,
    discretized_frontier,
    run_sweep,
)

REPEATS = 3
SPEEDUP_FLOOR = 3.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def _per_point_pass(ctx, benchmark, points):
    """The seed implementation: per-point encode, whole-table reduce."""
    encoder = DesignEncoder(ctx.exploration_space)
    predictor = ctx.predictor(benchmark)
    matrix = np.vstack([encoder.encode_point(point) for point in points])
    data = {
        name: matrix[:, j] for j, name in enumerate(encoder.feature_names)
    }
    bips = predictor.bips_model.predict(data)
    watts = predictor.watts_model.predict(data)
    from repro.metrics import bips3_per_watt, delay_seconds

    delay = delay_seconds(bips, predictor.ref_instructions)
    efficiency = bips3_per_watt(bips, watts)
    frontier = discretized_frontier(delay, watts, bins=50)
    return frontier, int(efficiency.argmax())


def _blockwise_pass(ctx, benchmark, points):
    """The engine: the point list as a fresh point set + streaming reducers."""
    report = run_sweep(
        [ctx.predictor(benchmark)],
        PointSet.from_points(ctx.exploration_space, points),
        [[ParetoFrontierReducer(bins=50), TopKReducer(metric="efficiency", k=1)]],
    )
    front, best = report.results[0]
    return front.indices, int(best.indices[0])


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


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def test_sweep_engine_throughput(ctx, bench_scale):
    ctx.models  # force the campaign + fit outside the timed region
    points = list(ctx.exploration_points())
    n = len(points)
    assert n > 0

    record = {
        "scale": bench_scale.name,
        "n_points": n,
        "repeats": REPEATS,
        "speedup_floor": SPEEDUP_FLOOR,
        "benchmarks": {},
    }
    ratios = []
    for benchmark in ctx.benchmarks:
        (old_frontier, old_best), old_elapsed = _timed(
            _per_point_pass, ctx, benchmark, points
        )
        (new_frontier, new_best), new_elapsed = _timed(
            _blockwise_pass, ctx, benchmark, points
        )

        # Numerical identity: same frontier designs, same optimum.
        assert np.array_equal(np.sort(old_frontier), np.sort(new_frontier))
        assert old_best == new_best

        old_pps = n / old_elapsed if old_elapsed > 0 else float("inf")
        new_pps = n / new_elapsed if new_elapsed > 0 else float("inf")
        ratio = new_pps / old_pps if old_pps > 0 else float("inf")
        ratios.append(ratio)
        record["benchmarks"][benchmark] = {
            "per_point_seconds": old_elapsed,
            "blockwise_seconds": new_elapsed,
            "per_point_points_per_second": old_pps,
            "blockwise_points_per_second": new_pps,
            "speedup": ratio,
            "per_point_peak_bytes": _peak_bytes(
                _per_point_pass, ctx, benchmark, points
            ),
            "blockwise_peak_bytes": _peak_bytes(
                _blockwise_pass, ctx, benchmark, points
            ),
        }

    record["mean_speedup"] = float(np.mean(ratios))
    record["min_speedup"] = float(np.min(ratios))
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    for benchmark, row in record["benchmarks"].items():
        print(
            f"{benchmark:>6s}: per-point {row['per_point_points_per_second']:>10,.0f} pts/s"
            f"  blockwise {row['blockwise_points_per_second']:>10,.0f} pts/s"
            f"  speedup {row['speedup']:.1f}x"
        )
    print(f"wrote {RESULT_PATH.name} (mean speedup {record['mean_speedup']:.1f}x)")
    assert record["mean_speedup"] >= SPEEDUP_FLOOR


def _collect(predictor, points, block_size):
    """Full (bips, watts) vectors of one sweep at ``block_size``."""
    report = run_sweep(
        [predictor],
        points,
        [[CollectReducer(metrics=("bips", "watts"))]],
        block_size=block_size,
    )
    collected = report.results[0][0]
    return collected.metric("bips"), collected.metric("watts")


def test_index_set_matches_point_list(ctx):
    """An index subset predicts identically to the same designs as points.

    A small index subset of the exploration space is swept as a
    :class:`PointSet` and as the point list it decodes to (through
    :meth:`PointSet.from_points`) with the same block decomposition; the
    predictions must agree bitwise, so paper-scale sweeps (which never
    materialize points) are interchangeable with list-backed sweeps.
    """
    space = ctx.exploration_space
    benchmark = ctx.benchmarks[0]
    indices = np.arange(0, len(space), max(1, len(space) // 512), dtype=np.int64)
    by_index = PointSet(space, indices)
    by_list = PointSet.from_points(space, list(by_index))

    predictor = ctx.predictor(benchmark)
    bips_a, watts_a = _collect(predictor, by_index, block_size=97)
    bips_b, watts_b = _collect(predictor, by_list, block_size=97)
    assert np.array_equal(bips_a, bips_b)
    assert np.array_equal(watts_a, watts_b)
