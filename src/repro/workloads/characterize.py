"""Workload characterization.

Quantifies the program properties that drive design-space behaviour —
inherent ILP, branch predictability, cacheability, footprint — the
quantities architects consult when interpreting why a benchmark's optimum
lands where it does (e.g. the Section 4.1 discussion of ammp's parallelism
versus mcf's memory boundedness).

All analyses operate on a concrete :class:`~repro.workloads.trace.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from .trace import NO_FETCH, OP_BRANCH, Trace

#: Default capacities (in 128B blocks) for miss-rate curves: 8KB .. 8MB.
DEFAULT_CAPACITIES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)

#: Capacities (in fetch blocks) of the instruction miss-rate curve.
INSTRUCTION_CAPACITIES = (128, 256, 512, 1024, 2048)


def miss_rate_curve(
    trace: Trace, capacities: Sequence[int] = DEFAULT_CAPACITIES
) -> Dict[int, float]:
    """Empirical data miss rate versus LRU capacity (blocks)."""
    reuse = trace.data_reuse[trace.data_reuse >= 0]
    if reuse.size == 0:
        return {int(c): 0.0 for c in capacities}
    return {int(c): float((reuse >= c).mean()) for c in capacities}


def instruction_miss_rate_curve(trace: Trace) -> Dict[int, float]:
    """Empirical fetch-block miss rate versus i-cache capacity (blocks)."""
    reuse = trace.instr_reuse[trace.instr_reuse != NO_FETCH]
    if reuse.size == 0:
        return {c: 0.0 for c in INSTRUCTION_CAPACITIES}
    return {c: float((reuse >= c).mean()) for c in INSTRUCTION_CAPACITIES}


def dataflow_ilp(trace: Trace, window: int = 0) -> float:
    """Dataflow-limit ILP under unit latencies.

    Computes each instruction's dataflow depth (1 + max producer depth)
    and returns ``n / max_depth`` — the IPC of an idealized machine with
    unbounded resources and single-cycle operations.  With ``window > 0``
    the trace is processed in windows of that many instructions (depths
    reset at window boundaries), modeling a finite instruction window.
    """
    src1 = trace.src1
    src2 = trace.src2
    n = len(trace)
    if window <= 0:
        window = n
    total_depth = 0
    position = 0
    while position < n:
        end = min(position + window, n)
        depths = [0] * (end - position)
        for i in range(position, end):
            depth = 1
            d1 = src1[i]
            if d1 and i - d1 >= position:
                depth = depths[i - d1 - position] + 1
            d2 = src2[i]
            if d2 and i - d2 >= position:
                candidate = depths[i - d2 - position] + 1
                if candidate > depth:
                    depth = candidate
            depths[i - position] = depth
        total_depth += max(depths)
        position = end
    return n / total_depth if total_depth else float(n)


def branch_predictability(trace: Trace) -> float:
    """Accuracy of an ideal per-site last-outcome predictor."""
    mask = trace.op == OP_BRANCH
    sites = trace.branch_site[mask].tolist()
    takens = trace.taken[mask].tolist()
    if not sites:
        return 1.0
    last: Dict[int, bool] = {}
    correct = total = 0
    for site, taken in zip(sites, takens):
        if site in last:
            total += 1
            correct += last[site] == taken
        last[site] = taken
    return correct / total if total else 1.0


@dataclass
class WorkloadCharacter:
    """Summary characterization of one trace."""

    benchmark: str
    instructions: int
    mix: Dict[str, float]
    ilp_infinite: float
    ilp_window_64: float
    branch_predictability: float
    data_miss_curve: Dict[int, float] = field(default_factory=dict)
    instr_miss_curve: Dict[int, float] = field(default_factory=dict)
    footprint_blocks: int = 0


def characterize(trace: Trace) -> WorkloadCharacter:
    """Full characterization of one trace."""
    return WorkloadCharacter(
        benchmark=trace.name,
        instructions=len(trace),
        mix=trace.mix(),
        ilp_infinite=dataflow_ilp(trace),
        ilp_window_64=dataflow_ilp(trace, window=64),
        branch_predictability=branch_predictability(trace),
        data_miss_curve=miss_rate_curve(trace),
        instr_miss_curve=instruction_miss_rate_curve(trace),
        footprint_blocks=trace.data_footprint(),
    )
