"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records appended by ``run.py --record``.  For every
(workload, end-to-end metric) the table shows each side's median and
quartiles over its untraced runs and a verdict, using the metric's bound
from ``BENCHMARK.json``:

- ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either side exceeds the bound, and not every run of the
  change reads better than every run of the base;
- ``worse`` — the change's median is worse than the base's by more than
  the bound;
- ``improved`` — the change wins at least nine tenths of the run pairs
  (ties count for neither) and its median beats the base's by more than
  the base's quartile distance;
- ``unchanged`` — otherwise.

Runs are paired by seed, then by order.  Below the table come the
per-layer self-time deltas of the traced runs and the per-step times of
the untraced runs.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: Sequence[float], change: Sequence[float], bound: float, better: str
) -> str:
    """Verdict for one metric; runs are paired by position."""
    sign = 1.0 if better == "lower" else -1.0  # sign * delta > 0 is worse
    q1_a, med_a, q3_a = quartiles(base)
    q1_b, med_b, q3_b = quartiles(change)
    spread = max((q3_a - q1_a) / abs(med_a), (q3_b - q1_b) / abs(med_b))
    if sign > 0:
        every_run_better = max(change) < min(base)
    else:
        every_run_better = min(change) > max(base)
    if spread > bound:
        return "improved" if every_run_better else "unresolved"
    if sign * (med_b - med_a) / abs(med_a) > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > q3_a - q1_a:
        return "improved"
    return "unchanged"


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_workload(records: List[dict], trace: int) -> Dict[str, List[dict]]:
    table: Dict[str, List[dict]] = {}
    for record in records:
        if record["trace"] == trace:
            table.setdefault(record["workload"], []).append(record)
    for runs in table.values():
        runs.sort(key=lambda record: record["seed"])
    return table


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def metric_rows(base: List[dict], change: List[dict], spec: dict):
    """(workload, metric, base stats, change stats, change %, verdict)."""
    a_runs, b_runs = by_workload(base, 0), by_workload(change, 0)
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name] for run in a_runs[workload]]
            b = [run["metrics"][name] for run in b_runs[workload]]
            qa, qb = quartiles(a), quartiles(b)
            change_pct = 100.0 * (qb[1] - qa[1]) / abs(qa[1])
            yield (
                workload,
                name,
                qa,
                qb,
                change_pct,
                verdict(a, b, metric["bound"], metric["better"]),
            )


def _median_of(runs: List[dict], pick, traced: bool) -> Dict[str, float]:
    """Median over iterations of every key of ``pick(iteration)``."""
    values: Dict[str, List[float]] = {}
    for run in runs:
        for iteration in run["iterations"]:
            if iteration["traced"] == traced:
                for key, value in pick(iteration).items():
                    values.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}


def delta_rows(base: List[dict], change: List[dict], trace: int, pick, traced: bool):
    """(workload, key, base median, change median) for every key."""
    a_runs, b_runs = by_workload(base, trace), by_workload(change, trace)
    for workload in sorted(set(a_runs) & set(b_runs)):
        a = _median_of(a_runs[workload], pick, traced)
        b = _median_of(b_runs[workload], pick, traced)
        for key in sorted(set(a) | set(b), key=lambda k: -a.get(k, 0.0)):
            if a.get(key, 0.0) or b.get(key, 0.0):
                yield workload, key, a.get(key, 0.0), b.get(key, 0.0)


def _print_deltas(title: str, rows) -> None:
    rows = list(rows)
    if not rows:
        return
    print()
    print(title)
    print(
        f"{'workload':20s} {'name':26s} {'base s':>10s} {'change s':>10s} "
        f"{'delta s':>10s}"
    )
    for workload, key, a, b in rows:
        print(f"{workload:20s} {key:26s} {a:10.4f} {b:10.4f} {b - a:+10.4f}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    spec = json.loads(SPEC.read_text())
    header = (
        f"{'workload':20s} {'metric':18s} {'base median [q1, q3]':>32s} "
        f"{'change median [q1, q3]':>32s} {'change':>8s}  verdict"
    )
    print(header)
    worse = False
    for workload, name, qa, qb, pct, result in metric_rows(base, change, spec):
        worse = worse or result == "worse"
        a = f"{_fmt(qa[1])} [{_fmt(qa[0])}, {_fmt(qa[2])}]"
        b = f"{_fmt(qb[1])} [{_fmt(qb[0])}, {_fmt(qb[2])}]"
        print(f"{workload:20s} {name:18s} {a:>32s} {b:>32s} {pct:+7.1f}%  {result}")
    _print_deltas(
        "per-layer self time (traced runs)",
        delta_rows(base, change, 1, lambda it: it["layers"], True),
    )
    _print_deltas(
        "per-step time (untraced runs)",
        delta_rows(base, change, 0, lambda it: it["seconds"], False),
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
