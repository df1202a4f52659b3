"""Study 1: Pareto frontier analysis (Section 4).

Characterize the design space exhaustively with the regression models,
extract the pareto frontier in the power-delay plane (delay-minimizing
designs per power level, built by delay discretization as in Section 4.2),
identify bips^3/w optima (Table 2), and validate frontier predictions
against simulation (Figures 3 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..designspace import DesignPoint
from ..harness.sweep import (
    ParetoFrontierReducer,
    TopKReducer,
    discretized_frontier,
    pareto_indices,
)
from ..regression.validation import ErrorSummary, boxplot_stats, prediction_errors
from .common import PredictionTable, StudyContext

__all__ = [
    "ParetoFrontier",
    "pareto_indices",
    "discretized_frontier",
    "characterize",
    "frontiers",
    "frontier",
    "EfficiencyOptimum",
    "efficiency_optimum",
    "table2",
    "FrontierValidation",
    "validate_frontier",
    "validate_frontiers",
    "resource_trend",
]


@dataclass
class ParetoFrontier:
    """Frontier designs with their predicted delay and power."""

    benchmark: str
    indices: np.ndarray      # into the characterization table
    points: List[DesignPoint]
    delay: np.ndarray
    power: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def characterize(ctx: StudyContext, benchmark: str) -> PredictionTable:
    """Figure 2's data: predicted delay/power of the exploration set."""
    return ctx.predict_exploration(benchmark)


def frontiers(
    ctx: StudyContext, benchmarks: Sequence[str], bins: int = 50
) -> Dict[str, ParetoFrontier]:
    """The regression-predicted pareto frontiers of several benchmarks.

    Runs on the streaming sweep engine in one pass over the exploration
    set for all of ``benchmarks``: the set is predicted blockwise and
    only frontier candidates are retained, so the full 262,500-point
    sweep never materializes a prediction table.  Indices are sweep
    positions — identical to row indices of
    :meth:`~repro.studies.common.StudyContext.predict_exploration`.
    """
    results = ctx.sweep_exploration(
        benchmarks, lambda: [ParetoFrontierReducer(bins=bins)]
    )
    return {
        benchmark: ParetoFrontier(
            benchmark=benchmark,
            indices=result.indices,
            points=result.points,
            delay=result.delay,
            power=result.power,
        )
        for benchmark, (result,) in results.items()
    }


def frontier(
    ctx: StudyContext, benchmark: str, bins: int = 50
) -> ParetoFrontier:
    """The regression-predicted pareto frontier for one benchmark."""
    return frontiers(ctx, [benchmark], bins=bins)[benchmark]


@dataclass
class EfficiencyOptimum:
    """One row of Table 2: a benchmark's bips^3/w-maximizing design."""

    benchmark: str
    point: DesignPoint
    predicted_bips: float
    predicted_watts: float
    predicted_delay: float
    predicted_efficiency: float
    simulated_bips: float = float("nan")
    simulated_watts: float = float("nan")
    simulated_delay: float = float("nan")

    @property
    def delay_error(self) -> float:
        """Signed relative delay error, (sim - model) / model."""
        return (self.simulated_delay - self.predicted_delay) / self.predicted_delay

    @property
    def power_error(self) -> float:
        return (self.simulated_watts - self.predicted_watts) / self.predicted_watts


def _optimum_reducers() -> List[TopKReducer]:
    return [TopKReducer(metric="efficiency", k=1)]


def efficiency_optimum(
    ctx: StudyContext, benchmark: str, validate: bool = True
) -> EfficiencyOptimum:
    """The benchmark's predicted bips^3/w-maximizing design (+ sim check).

    The argmax streams through the sweep engine (first occurrence wins on
    ties, as with ``argmax`` over a whole-space table).
    """
    best = ctx.sweep_exploration([benchmark], _optimum_reducers)[benchmark][0]
    point = best.points[0]
    row = EfficiencyOptimum(
        benchmark=benchmark,
        point=point,
        predicted_bips=float(best.bips[0]),
        predicted_watts=float(best.watts[0]),
        predicted_delay=float(best.delay[0]),
        predicted_efficiency=float(best.efficiency[0]),
    )
    if validate:
        (result,) = ctx.simulate(benchmark, [point])
        row.simulated_bips = result.bips
        row.simulated_watts = float(result.watts)
        row.simulated_delay = result.delay_seconds
    return row


def table2(ctx: StudyContext, validate: bool = True) -> List[EfficiencyOptimum]:
    """Table 2: per-benchmark bips^3/w optima with validation errors."""
    # One suite pass; each row's sweep then reads the context's memo.
    ctx.sweep_exploration(ctx.benchmarks, _optimum_reducers)
    return [
        efficiency_optimum(ctx, benchmark, validate=validate)
        for benchmark in ctx.benchmarks
    ]


@dataclass
class FrontierValidation:
    """Figure 3/4 data for one benchmark: model vs simulation on the frontier."""

    benchmark: str
    points: List[DesignPoint]
    model_delay: np.ndarray
    model_power: np.ndarray
    simulated_delay: np.ndarray
    simulated_power: np.ndarray
    delay_errors: ErrorSummary
    power_errors: ErrorSummary


def validate_frontier(ctx: StudyContext, benchmark: str) -> FrontierValidation:
    """Simulate designs along the predicted frontier and summarize errors.

    The scale preset's ``frontier_validations`` frontier designs are
    simulated, spread evenly along the frontier.
    """
    front = frontier(ctx, benchmark)
    count = min(ctx.scale.frontier_validations, len(front))
    picks = np.unique(
        np.linspace(0, len(front) - 1, count).round().astype(int)
    )
    points = [front.points[i] for i in picks]
    model_delay = front.delay[picks]
    model_power = front.power[picks]
    results = ctx.simulate(benchmark, points)
    simulated_delay = np.array([r.delay_seconds for r in results])
    simulated_power = np.array([r.watts for r in results])

    delay_errors = prediction_errors(simulated_delay, model_delay)
    power_errors = prediction_errors(simulated_power, model_power)
    return FrontierValidation(
        benchmark=benchmark,
        points=points,
        model_delay=model_delay,
        model_power=model_power,
        simulated_delay=simulated_delay,
        simulated_power=simulated_power,
        delay_errors=ErrorSummary(
            benchmark=benchmark,
            metric="delay",
            errors=delay_errors,
            stats=boxplot_stats(delay_errors),
        ),
        power_errors=ErrorSummary(
            benchmark=benchmark,
            metric="watts",
            errors=power_errors,
            stats=boxplot_stats(power_errors),
        ),
    )


def validate_frontiers(
    ctx: StudyContext, benchmarks: Sequence[str]
) -> Dict[str, FrontierValidation]:
    """:func:`validate_frontier` for several benchmarks.

    Their frontiers come from one sweep pass; each validation then reads
    its frontier from the context's memo.
    """
    frontiers(ctx, benchmarks)
    return {benchmark: validate_frontier(ctx, benchmark) for benchmark in benchmarks}


def resource_trend(
    ctx: StudyContext, benchmark: str, parameter: str
) -> Dict[float, Dict[str, float]]:
    """Figure 2's arrows: mean delay/power at each level of one parameter."""
    table = ctx.predict_exploration(benchmark)
    levels: Dict[float, Dict[str, float]] = {}
    values = table.points.column(parameter)
    delay = table.delay
    for level in sorted(set(values.tolist())):
        mask = values == level
        levels[level] = {
            "mean_delay": float(delay[mask].mean()),
            "mean_power": float(table.watts[mask].mean()),
            "count": int(mask.sum()),
        }
    return levels
