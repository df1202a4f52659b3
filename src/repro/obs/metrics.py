"""Process-wide metrics: counters and sum/count timers.

The registry is the *cheap* pillar of :mod:`repro.obs`: recording is one
dict update, so per-block and even per-simulation hot paths can count
work units and time themselves without measurable overhead.  Two kinds
of metric exist:

- a **counter** (:meth:`MetricsRegistry.increment`) adds non-negative
  amounts — simulations, design points, cache hits;
- a **timer** (:meth:`MetricsRegistry.observe`) keeps the ``sum`` and
  ``count`` of its observed durations, in seconds.

Everything snapshots to a JSON-safe dict, and snapshots compose:

- :meth:`MetricsRegistry.snapshot` captures the current state;
- :meth:`MetricsRegistry.delta` subtracts an earlier snapshot, giving
  the metrics attributable to one run of work;
- :func:`merge_snapshots` folds any number of snapshots (driver plus
  every chunk's worker) into one: counters, timer sums and timer counts
  add, so merge order does not matter.

A snapshot is ``{"counters": {name: float}, "histograms": {name:
{"sum": float, "count": int}}}``.  Names follow ``layer.noun[.unit]`` —
``sweep.points``, ``simulator.simulate.seconds``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "MetricsError",
    "MetricsRegistry",
    "get_registry",
    "isolated_registry",
    "merge_snapshots",
]


class MetricsError(ValueError):
    """Raised for a negative increment or a name used as both kinds."""


class MetricsRegistry:
    """One process's counters and timers, keyed by name.

    A name is a counter or a timer for the registry's lifetime; using it
    as the other kind is an error, which keeps the namespace coherent
    across independently instrumented layers.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._timers: Dict[str, List[float]] = {}  # name -> [sum, count]

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``; negative amounts are rejected."""
        if amount < 0:
            raise MetricsError(f"counter {name!r} only increases, got {amount}")
        if name in self._timers:
            raise MetricsError(f"metric {name!r} is a timer, not a counter")
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def observe(self, name: str, seconds: float) -> None:
        """Add one duration to timer ``name``."""
        if name in self._counters:
            raise MetricsError(f"metric {name!r} is a counter, not a timer")
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = [0.0, 0]
        timer[0] += float(seconds)
        timer[1] += 1

    def snapshot(self) -> dict:
        """JSON-safe copy of every metric's current state."""
        return {
            "counters": dict(self._counters),
            "histograms": {
                name: {"sum": total, "count": count}
                for name, (total, count) in self._timers.items()
            },
        }

    def delta(self, since: dict) -> dict:
        """The metrics accrued after ``since`` (an earlier snapshot).

        Counters and timers subtract; a metric that did not move is left
        out.  This is what one run of work contributed, regardless of
        what ran before it in the same process.
        """
        now = self.snapshot()
        counters = {}
        for name, value in now["counters"].items():
            grown = value - since["counters"].get(name, 0.0)
            if grown:
                counters[name] = grown
        histograms = {}
        for name, timer in now["histograms"].items():
            base = since["histograms"].get(name, {"sum": 0.0, "count": 0})
            count = timer["count"] - base["count"]
            if count:
                histograms[name] = {
                    "sum": timer["sum"] - base["sum"],
                    "count": count,
                }
        return {"counters": counters, "histograms": histograms}


def merge_snapshots(*snapshots: Optional[dict]) -> dict:
    """Fold snapshots into one; None and empty entries are skipped.

    Counters, timer sums and timer counts add, so the result does not
    depend on the order workers completed in.
    """
    counters: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, timer in snapshot["histograms"].items():
            merged = histograms.setdefault(name, {"sum": 0.0, "count": 0})
            merged["sum"] += timer["sum"]
            merged["count"] += timer["count"]
    return {"counters": counters, "histograms": histograms}


#: The process-wide registry instrumented code records into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (one per process, including workers)."""
    return _REGISTRY


@contextmanager
def isolated_registry() -> Iterator[MetricsRegistry]:
    """Swap in a fresh process-wide registry for the ``with`` block.

    Everything recorded inside the block lands in the yielded registry
    and nowhere else; the previous registry is restored afterwards even
    on error.  The resilience chunk executor wraps each chunk in this so
    a chunk's metrics exist in exactly one place — its result envelope —
    whether it ran in a pool worker or in-process, and a chunk that
    raises drops its metrics with the discarded registry.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = MetricsRegistry()
    try:
        yield _REGISTRY
    finally:
        _REGISTRY = previous
