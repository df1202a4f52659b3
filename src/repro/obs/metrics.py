"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry is the *cheap* pillar of :mod:`repro.obs`: instruments are
plain python objects behind one dict lookup, so per-block and even
per-simulation hot paths can count work units and observe durations
without measurable overhead.  Everything snapshots to a JSON-safe dict,
and snapshots compose:

- :meth:`MetricsRegistry.snapshot` captures the current state;
- :meth:`MetricsRegistry.delta` subtracts an earlier snapshot, giving
  the metrics attributable to one chunk of work — this is how worker
  processes ship per-chunk metrics back through
  :mod:`repro.harness.resilience` without global coordination;
- :func:`merge_snapshots` folds any number of snapshots (driver plus
  and every chunk's worker) into one, with well-defined
  semantics: counters and histogram buckets add, gauges take the
  maximum (merge order must not matter).

Naming convention: ``layer.noun[.unit]`` with dots between components —
``sweep.points``, ``simulator.simulate.seconds`` — and optional labels
for low-cardinality dimensions (``benchmark=gzip``).  Durations are
always seconds.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "get_registry",
    "isolated_registry",
    "merge_snapshots",
    "reset_registry",
]

#: Default histogram bucket upper bounds (seconds): spans microbenchmark
#: blocks (~ms) through full campaigns (~minutes).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

#: Current snapshot schema version.
SNAPSHOT_VERSION = 1


class MetricsError(ValueError):
    """Raised for malformed metric names, buckets, or snapshots."""


def _key(name: str, labels: Dict[str, object]) -> str:
    """Serialized instrument key: ``name`` or ``name{k=v,k2=v2}``.

    Labels are sorted so the key is independent of call-site order; the
    serialized form doubles as the snapshot key, which keeps snapshots
    JSON-safe and mergeable by plain string equality.
    """
    if not name:
        raise MetricsError("metric name must be non-empty")
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count of events or work units."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; negative amounts are rejected."""
        if amount < 0:
            raise MetricsError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, worker count, block size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with sum and count.

    ``buckets`` are the inclusive upper bounds of each bucket; one
    overflow bucket catches everything larger.  Bucket counts are stored
    per bucket (not cumulative), so merging two histograms is elementwise
    addition.  A value equal to a bound lands in that bound's bucket
    (``le`` semantics, as in OpenMetrics).
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"bucket bounds must strictly increase, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Add one observation (binary search over the bucket bounds)."""
        value = float(value)
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if self.buckets[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """One process's instruments, keyed by name (plus optional labels).

    Accessors are get-or-create; re-requesting a name with a different
    instrument kind (or different histogram buckets) is an error, which
    keeps the namespace coherent across independently instrumented
    layers.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments -------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        key = _key(name, labels)
        self._check_kind(key, self._counters, "counter")
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create a gauge."""
        key = _key(name, labels)
        self._check_kind(key, self._gauges, "gauge")
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        key = _key(name, labels)
        self._check_kind(key, self._histograms, "histogram")
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        elif buckets is not None and tuple(
            float(b) for b in buckets
        ) != histogram.buckets:
            raise MetricsError(
                f"histogram {key!r} already registered with buckets "
                f"{histogram.buckets}"
            )
        return histogram

    def _check_kind(self, key: str, own: Dict, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not own and key in table:
                raise MetricsError(
                    f"metric {key!r} is already a {other_kind}, not a {kind}"
                )

    # -- convenience -------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0, **labels) -> None:
        """``counter(name).add(amount)`` in one call."""
        self.counter(name, **labels).add(amount)

    def observe(self, name: str, value: float, **labels) -> None:
        """``histogram(name).observe(value)`` in one call."""
        self.histogram(name, **labels).observe(value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """``gauge(name).set(value)`` in one call."""
        self.gauge(name, **labels).set(value)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe copy of every instrument's current state."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {
                key: counter.value for key, counter in self._counters.items()
            },
            "gauges": {
                key: gauge.value for key, gauge in self._gauges.items()
            },
            "histograms": {
                key: {
                    "buckets": list(histogram.buckets),
                    "counts": list(histogram.counts),
                    "sum": histogram.sum,
                    "count": histogram.count,
                }
                for key, histogram in self._histograms.items()
            },
        }

    def delta(self, since: dict) -> dict:
        """The metrics accrued after ``since`` (an earlier snapshot).

        Counters and histogram bucket counts subtract; gauges report
        their current value (a level has no meaningful difference).
        This is what one chunk of work contributed, regardless of what
        ran before it in the same process.
        """
        now = self.snapshot()
        counters = {}
        for key, value in now["counters"].items():
            grown = value - since.get("counters", {}).get(key, 0.0)
            if grown:
                counters[key] = grown
        histograms = {}
        for key, hist in now["histograms"].items():
            base = since.get("histograms", {}).get(key)
            if base is None:
                if hist["count"]:
                    histograms[key] = hist
                continue
            if list(base["buckets"]) != hist["buckets"]:
                raise MetricsError(
                    f"histogram {key!r} changed buckets between snapshots"
                )
            counts = [
                c - b for c, b in zip(hist["counts"], base["counts"])
            ]
            count = hist["count"] - base["count"]
            if count:
                histograms[key] = {
                    "buckets": hist["buckets"],
                    "counts": counts,
                    "sum": hist["sum"] - base["sum"],
                    "count": count,
                }
        return {
            "version": SNAPSHOT_VERSION,
            "counters": counters,
            "gauges": dict(now["gauges"]),
            "histograms": histograms,
        }


def merge_snapshots(*snapshots: Optional[dict]) -> dict:
    """Fold snapshots into one; None entries are skipped.

    Counters and histogram bucket counts/sums add; gauges take the
    maximum so the merge is independent of worker completion order.
    Histograms with mismatched buckets raise :class:`MetricsError`.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = max(gauges.get(key, float("-inf")), value)
        for key, hist in snapshot.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            if merged["buckets"] != list(hist["buckets"]):
                raise MetricsError(
                    f"cannot merge histogram {key!r}: bucket bounds differ"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], hist["counts"])
            ]
            merged["sum"] += hist["sum"]
            merged["count"] += hist["count"]
    return {
        "version": SNAPSHOT_VERSION,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


#: The process-wide registry instrumented code records into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (one per process, including workers)."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the process-wide registry with a fresh one (tests, CLI)."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
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
