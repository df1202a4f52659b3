"""Aggregation and rendering for recorded traces.

Backs ``repro trace summary`` (per-span-name aggregate table) and
``repro trace tree`` (slowest-path tree view).  Deliberately standalone:
:mod:`repro.obs` sits below every other repro package, so the small
table formatter here does not reach for ``repro.harness.tables`` and
the p95 is a nearest-rank percentile over a sorted list rather than a
numpy call — the whole package stays dependency-free.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .tracing import SpanNode, build_span_tree

__all__ = [
    "SpanStats",
    "render_metrics",
    "render_summary",
    "render_tree",
    "summarize_spans",
]


class SpanStats:
    """Aggregate over every span sharing one name."""

    __slots__ = ("name", "count", "total_wall_s", "total_cpu_s", "_walls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_wall_s = 0.0
        self.total_cpu_s = 0.0
        self._walls: List[float] = []

    def add(self, wall_s: float, cpu_s: float) -> None:
        """Fold one span's timings into the aggregate."""
        self.count += 1
        self.total_wall_s += wall_s
        self.total_cpu_s += cpu_s
        self._walls.append(wall_s)

    @property
    def mean_wall_s(self) -> float:
        """Mean wall time per span (0.0 when empty)."""
        return self.total_wall_s / self.count if self.count else 0.0

    @property
    def p95_wall_s(self) -> float:
        """Nearest-rank 95th-percentile wall time."""
        if not self._walls:
            return 0.0
        ordered = sorted(self._walls)
        rank = max(0, -(-95 * len(ordered) // 100) - 1)  # ceil, 0-based
        return ordered[rank]


def summarize_spans(records: List[dict]) -> List[SpanStats]:
    """Per-name aggregates over span records, sorted by total wall desc."""
    stats: Dict[str, SpanStats] = {}
    for body in records:
        if body.get("kind") != "span":
            continue
        entry = stats.get(body["name"])
        if entry is None:
            entry = stats[body["name"]] = SpanStats(body["name"])
        entry.add(body["wall_s"], body["cpu_s"])
    return sorted(stats.values(), key=lambda s: -s.total_wall_s)


def _fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:.1f}"
    if value >= 1:
        return f"{value:.3f}"
    return f"{value * 1000:.3f}ms" if value < 0.0995 else f"{value:.4f}"


def _render_rows(header: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]

    def line(cells: List[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(cells)
        ).rstrip()

    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def render_summary(records: List[dict]) -> str:
    """The ``repro trace summary`` table: one row per span name."""
    stats = summarize_spans(records)
    if not stats:
        return "(no spans recorded)"
    events = sum(1 for b in records if b.get("kind") == "event")
    rows = [
        [
            s.name,
            str(s.count),
            _fmt_seconds(s.total_wall_s),
            _fmt_seconds(s.mean_wall_s),
            _fmt_seconds(s.p95_wall_s),
            _fmt_seconds(s.total_cpu_s),
        ]
        for s in stats
    ]
    table = _render_rows(
        ["span", "count", "total", "mean", "p95", "cpu"], rows
    )
    total = sum(s.count for s in stats)
    return f"{table}\n\n{total} spans, {events} events"


def render_tree(records: List[dict], max_depth: int = 8) -> str:
    """The ``repro trace tree`` view: slowest paths, children by wall.

    Each node shows its wall time, self time (wall minus child spans),
    and name; children are sorted slowest-first and pruned to six per
    node with an elision marker.
    """
    max_children = 6
    roots = build_span_tree(records)
    span_roots = [r for r in roots if r.body["kind"] == "span"]
    if not span_roots:
        return "(no spans recorded)"
    lines: List[str] = []

    def visit(node: SpanNode, prefix: str, last: bool, depth: int) -> None:
        if node.body["kind"] == "event":
            return
        if depth == 0:
            connector = ""
            child_prefix = "  "
        else:
            connector = "└─ " if last else "├─ "
            child_prefix = prefix + ("   " if last else "│  ")
        label = (
            f"{_fmt_seconds(node.wall_s)} "
            f"(self {_fmt_seconds(node.self_wall_s())}) {node.name}"
        )
        if node.body.get("status") == "error":
            label += " [error]"
        lines.append(prefix + connector + label)
        if depth >= max_depth:
            return
        children = sorted(
            (c for c in node.children if c.body["kind"] == "span"),
            key=lambda c: -c.wall_s,
        )
        shown = children[:max_children]
        for index, child in enumerate(shown):
            is_last = index == len(shown) - 1 and len(children) <= max_children
            visit(child, child_prefix, is_last, depth + 1)
        if len(children) > max_children:
            hidden = len(children) - max_children
            hidden_wall = sum(c.wall_s for c in children[max_children:])
            lines.append(
                child_prefix
                + f"└─ … {hidden} more ({_fmt_seconds(hidden_wall)})"
            )

    for index, root in enumerate(span_roots):
        visit(root, "", index == len(span_roots) - 1, 0)
    return "\n".join(lines)


def render_metrics(snapshot: Optional[dict]) -> str:
    """Human-readable rendering of a metrics snapshot."""
    if not snapshot:
        return "(no metrics recorded)"
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        rows = [
            [key, f"{value:g}"] for key, value in sorted(counters.items())
        ]
        lines.append(_render_rows(["counter", "value"], rows))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for key, hist in sorted(histograms.items()):
            count = hist["count"]
            mean = hist["sum"] / count if count else 0.0
            rows.append([key, str(count), _fmt_seconds(hist["sum"]),
                         _fmt_seconds(mean)])
        lines.append(
            _render_rows(["histogram", "count", "sum", "mean"], rows)
        )
    return "\n\n".join(lines) if lines else "(no metrics recorded)"
