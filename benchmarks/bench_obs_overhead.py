"""Observability overhead: instrumented vs uninstrumented sweep throughput.

Times the same full-exploration-space sweep (262,500 designs at ci scale)
two ways:

- **off** — no trace sink configured: spans still measure but nothing is
  written, and the metrics registry counts as always;
- **trace** — a :class:`~repro.obs.tracing.TraceSink` attached via
  ``configure_tracing``, so every block span is checksummed and appended
  to JSONL.

Asserts the tracing overhead stays under the 10% acceptance ceiling and
writes ``BENCH_obs.json`` with points/sec per mode, the overhead ratio,
and the trace size per span.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.designspace import PointSet, exploration_space
from repro.harness.sweep import (
    ParetoFrontierReducer,
    TopKReducer,
    run_sweep,
)
from repro.obs import configure_tracing, disable_tracing, read_trace

REPEATS = 3
OVERHEAD_CEILING = 1.10
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _sweep_once(predictor, points):
    return run_sweep(
        [predictor],
        points,
        [[ParetoFrontierReducer(bins=50), TopKReducer(metric="efficiency", k=1)]],
    )


def _best_of(predictor, points, trace_path=None):
    best = None
    for i in range(REPEATS):
        if trace_path is not None:
            configure_tracing(f"{trace_path}.{i}")
        started = time.perf_counter()
        _sweep_once(predictor, points)
        elapsed = time.perf_counter() - started
        if trace_path is not None:
            disable_tracing()
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_observability_overhead(ctx, bench_scale, tmp_path):
    predictor = ctx.predictor("gzip")
    space = exploration_space()
    points = PointSet(space, np.arange(len(space)))
    n = len(points)
    _sweep_once(predictor, points)  # warm caches outside the timed region

    off = _best_of(predictor, points)
    traced = _best_of(predictor, points, trace_path=tmp_path / "t")

    trace_file = f"{tmp_path / 't'}.0"
    records = read_trace(trace_file, strict=True)
    spans = [r for r in records if r["kind"] == "span"]
    trace_bytes = Path(trace_file).stat().st_size

    record = {
        "scale": bench_scale.name,
        "n_points": n,
        "repeats": REPEATS,
        "overhead_ceiling": OVERHEAD_CEILING,
        "off_seconds": off,
        "trace_seconds": traced,
        "off_points_per_second": n / off,
        "trace_points_per_second": n / traced,
        "trace_overhead": traced / off,
        "spans_per_sweep": len(spans),
        "trace_bytes_per_span": trace_bytes / max(1, len(records)),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(
        f"   off: {n / off:>12,.0f} pts/s"
        f"   traced: {n / traced:>12,.0f} pts/s"
        f"   overhead {traced / off - 1:+.1%}"
    )
    print(
        f"{len(spans)} spans/sweep, "
        f"{record['trace_bytes_per_span']:.0f} bytes/record; "
        f"wrote {RESULT_PATH.name}"
    )
    assert traced <= off * OVERHEAD_CEILING, (
        f"tracing overhead {traced / off - 1:.1%} exceeds "
        f"{OVERHEAD_CEILING - 1:.0%} (off {off:.3f}s, traced {traced:.3f}s)"
    )
