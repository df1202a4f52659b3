"""Full-run report generation.

``repro report`` regenerates every experiment at the active scale and
writes a single markdown document — the machine-written companion to
EXPERIMENTS.md, useful for comparing scales or code revisions.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Tuple

from .scale import ScalePreset


def generate_report(ctx, runs: Iterable[Tuple[object, float]]) -> str:
    """Render a markdown report of ``runs`` against ``ctx``.

    ``runs`` yields ``(result, seconds)`` pairs, as
    :func:`repro.experiments.run_experiments` does.
    """
    scale: ScalePreset = ctx.scale
    lines = [
        "# repro experiment report",
        "",
        f"- scale: `{scale.name}` (traces {scale.trace_length}, "
        f"train {scale.n_train}, validation {scale.n_validation}, "
        f"exploration {scale.exploration_limit or 'exhaustive'})",
        f"- benchmarks: {', '.join(ctx.benchmarks)}",
        f"- generated: {time.strftime('%Y-%m-%d %H:%M:%S')}",
        "",
    ]
    for result, seconds in runs:
        lines += [
            f"## {result.id} — {result.title}",
            "",
            f"_regenerated in {seconds:.1f}s_",
            "",
            "```",
            result.text,
            "```",
            "",
        ]
    return "\n".join(lines)


def write_report(ctx, path: Path, runs: Iterable[Tuple[object, float]]) -> Path:
    """Generate and write the report of ``runs``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_report(ctx, runs))
    return path
