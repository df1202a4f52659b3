"""Figure data extraction and text rendering.

The paper's figures are boxplot panels, scatter characterizations and
line series.  Benchmarks and examples regenerate the *data* of each figure
and render it as text: a boxplot row per benchmark, a series per curve.
Nothing here depends on a plotting backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..regression.validation import BoxplotStats


@dataclass(frozen=True)
class Series:
    """One named line of (x, y) pairs."""

    name: str
    x: tuple
    y: tuple

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: {len(self.x)} x vs {len(self.y)} y"
            )


def render_series(series: Series) -> str:
    """One series as a 'name: (x, y) ...' line, y to three decimals."""
    pairs = " ".join(f"({x:g}, {y:.3f})" for x, y in zip(series.x, series.y))
    return f"{series.name}: {pairs}"


def render_boxplot(label: str, stats: BoxplotStats, percent: bool = False) -> str:
    """One boxplot as text: whiskers, quartiles, median, outlier count."""
    scale = 100.0 if percent else 1.0
    suffix = "%" if percent else ""
    return (
        f"{label:>10s}: [{stats.whisker_low * scale:6.2f}{suffix} "
        f"| {stats.q1 * scale:6.2f}{suffix} "
        f"| {stats.median * scale:6.2f}{suffix} "
        f"| {stats.q3 * scale:6.2f}{suffix} "
        f"| {stats.whisker_high * scale:6.2f}{suffix}] "
        f"outliers={len(stats.outliers)} n={stats.n}"
    )


def render_boxplot_panel(
    title: str, panel: Dict[str, BoxplotStats], percent: bool = False
) -> str:
    """A labelled stack of boxplots (one per benchmark), like Figure 1."""
    lines = [title]
    lines += [render_boxplot(label, stats, percent) for label, stats in panel.items()]
    return "\n".join(lines)


def ascii_scatter(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 64,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Coarse ASCII scatter plot (Figure 2-style characterizations)."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values vs {len(ys)} y values")
    if not xs:
        raise ValueError("nothing to plot")
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = min(int((x - x_min) / x_span * (width - 1)), width - 1)
        row = min(int((y - y_min) / y_span * (height - 1)), height - 1)
        grid[height - 1 - row][col] = "*"
    lines = ["".join(row) for row in grid]
    header = (
        f"{y_label} ({y_min:.3g}..{y_max:.3g}) vs {x_label} ({x_min:.3g}..{x_max:.3g})"
    )
    return "\n".join([header] + lines)
