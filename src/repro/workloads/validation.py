"""Trace-versus-profile conformance validation.

The paper's traces were systematically validated against the full
reference executions they sample (Iyengar et al. [11]).  Our analogue
checks that a generated trace is a faithful realization of its profile:
op mix, branch persistence, reuse-distance survival and dependence
structure all within tolerance.  Used by tests, and available to users
who define custom workloads (a mis-specified profile shows up here before
it silently skews a design study).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .profile import WorkloadProfile
from .trace import NO_FETCH, OP_BRANCH, OP_NAMES, Trace


@dataclass
class Check:
    """One conformance check outcome."""

    name: str
    expected: float
    observed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.observed - self.expected) <= self.tolerance

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: expected {self.expected:.4f}, observed "
            f"{self.observed:.4f} (±{self.tolerance:.4f}) [{status}]"
        )


@dataclass
class ConformanceReport:
    """All checks for one (trace, profile) pair."""

    benchmark: str
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _mix_tolerance(fraction: float, n: int) -> float:
    """3-sigma binomial tolerance with a floor for tiny samples."""
    sigma = np.sqrt(max(fraction * (1 - fraction), 1e-6) / n)
    return max(3.0 * sigma, 0.01)


def validate_trace(trace: Trace, profile: WorkloadProfile) -> ConformanceReport:
    """Check that ``trace`` realizes ``profile`` within sampling noise."""
    report = ConformanceReport(benchmark=profile.name)
    n = len(trace)
    mix = trace.mix()

    # -- op mix ---------------------------------------------------------------
    for op_name in OP_NAMES.values():
        expected = profile.mix.get(op_name, 0.0)
        report.checks.append(
            Check(
                name=f"mix_{op_name}",
                expected=expected,
                observed=mix[op_name],
                tolerance=_mix_tolerance(expected, n),
            )
        )

    # -- branch persistence ------------------------------------------------
    branch_mask = trace.op == OP_BRANCH
    sites = trace.branch_site[branch_mask].tolist()
    takens = trace.taken[branch_mask].tolist()
    last: Dict[int, bool] = {}
    repeats = total = 0
    for site, taken in zip(sites, takens):
        if site in last:
            total += 1
            repeats += last[site] == taken
        last[site] = taken
    if total >= 50:
        expected_persistence = (
            profile.unpredictable_rate * 0.5
            + (1 - profile.unpredictable_rate) * profile.branch_bias
        )
        # Two noise sources: transition sampling (binomial over `total`
        # observed repeats) and *site realization* — which sites came up
        # unpredictable is itself a draw over `static_branches` sites, and
        # each unpredictable site shifts persistence by (bias - 0.5).
        rate = profile.unpredictable_rate
        site_sigma = np.sqrt(max(rate * (1 - rate), 1e-6) / profile.static_branches)
        realization = site_sigma * (profile.branch_bias - 0.5)
        tolerance = max(3.0 * (np.sqrt(0.25 / total) + realization), 0.03)
        report.checks.append(
            Check(
                name="branch_persistence",
                expected=expected_persistence,
                observed=repeats / total,
                tolerance=tolerance,
            )
        )

    # -- reuse-distance survival ----------------------------------------------
    reuse = trace.data_reuse[trace.data_reuse >= 0]
    if reuse.size >= 100:
        for capacity in (64, 1024, 16384):
            report.checks.append(
                Check(
                    name=f"data_survival_{capacity}",
                    expected=profile.data_miss_rate(capacity),
                    observed=float((reuse >= capacity).mean()),
                    tolerance=max(3.0 * np.sqrt(0.25 / reuse.size), 0.02),
                )
            )

    # -- instruction-side survival ------------------------------------------
    instr = trace.instr_reuse[trace.instr_reuse != NO_FETCH]
    if instr.size >= 100:
        for capacity in (128, 1024):
            report.checks.append(
                Check(
                    name=f"instr_survival_{capacity}",
                    expected=profile.instr_miss_rate(capacity),
                    observed=float((instr >= capacity).mean()),
                    tolerance=max(3.0 * np.sqrt(0.25 / instr.size), 0.02),
                )
            )

    # -- dependence distances ---------------------------------------------
    # geometric distances are clipped at the trace start and rewritten by
    # load chaining, so compare medians robustly with a generous band
    src1 = trace.src1[trace.src1 > 0]
    if src1.size >= 100:
        expected_median = max(1.0, np.log(2.0) * profile.dep_distance_mean)
        report.checks.append(
            Check(
                name="dependence_median",
                expected=expected_median,
                observed=float(np.median(src1)),
                tolerance=max(0.5 * expected_median, 1.5),
            )
        )

    return report
