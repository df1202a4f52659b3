"""Observability rules (OBS).

The harness layer reports every duration through :mod:`repro.obs` — spans
for structure, ``Stopwatch`` for raw wall/CPU pairs shipped across process
boundaries.  A bare ``time.perf_counter()`` call in harness code produces a
number invisible to ``repro trace summary`` and the merged metrics
snapshot, so the timing silently falls out of the observability story.
Scheduling clocks (``time.monotonic`` for deadlines and elapsed-time
checks, ``time.sleep`` for waits) are not measurements and stay exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register

#: Measurement clocks that bypass the observability layer when called
#: directly.  ``time.monotonic`` is deliberately absent: a deadline or a
#: poll interval is scheduling, not measurement.
_RAW_CLOCKS = {"time.perf_counter", "time.process_time"}


@register
class RawClockInHarness(Rule):
    """OBS001: harness timing that bypasses repro.obs."""

    id = "OBS001"
    name = "raw-clock-in-harness"
    severity = Severity.WARNING
    exempt_tests = True
    description = (
        "Direct time.perf_counter()/time.process_time() call in harness"
        " code — durations measured outside repro.obs never reach traces"
        " or metrics; use obs.tracing.Stopwatch or a span instead."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag raw measurement-clock calls in ``repro.harness`` modules."""
        if ctx.package != "harness":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in _RAW_CLOCKS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"raw clock {resolved}() in harness code; time with "
                    "repro.obs (Stopwatch or a span) so the duration "
                    "reaches traces and metrics",
                    col=node.col_offset,
                )
