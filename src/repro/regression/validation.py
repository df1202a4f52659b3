"""Prediction-error assessment.

Figure 1 (and Figure 4 for pareto points) reports boxplots of
``|obs - pred| / pred`` over validation designs.  This module computes
those error distributions and the boxplot statistics the paper describes
in Section 3.4 (median/quartile lines, 1.5-IQR whiskers, outlier points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

import numpy as np

from .fit import FittedModel
from .splines import sorted_quantiles


class ValidationError(ValueError):
    """Raised for empty or mismatched validation inputs."""


def prediction_errors(observed: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """The paper's error measure: ``|obs - pred| / pred``."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if observed.shape != predicted.shape:
        raise ValidationError(
            f"shape mismatch: observed {observed.shape} vs predicted {predicted.shape}"
        )
    if observed.size == 0:
        raise ValidationError("no validation points")
    if (predicted == 0).any():
        raise ValidationError("zero predictions make relative error undefined")
    return np.abs(observed - predicted) / np.abs(predicted)


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number boxplot summary of Section 3.4."""

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple
    n: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    """Boxplot statistics per the paper's construction.

    Whiskers extend to the most extreme data point within 1.5 IQR of the
    nearer quartile; points beyond are outliers.
    """
    array = np.sort(np.asarray(values, dtype=float))
    if array.size == 0:
        raise ValidationError("cannot summarize an empty sample")
    q1, median, q3 = sorted_quantiles(array, (0.25, 0.5, 0.75))
    iqr = q3 - q1
    low_bound = q1 - 1.5 * iqr
    high_bound = q3 + 1.5 * iqr
    inside = array[(array >= low_bound) & (array <= high_bound)]
    whisker_low = float(inside.min()) if inside.size else float(median)
    whisker_high = float(inside.max()) if inside.size else float(median)
    outliers = tuple(
        float(v) for v in array[(array < low_bound) | (array > high_bound)]
    )
    return BoxplotStats(
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        n=int(array.size),
    )


@dataclass(frozen=True)
class ErrorSummary:
    """Error distribution of one model on one validation set."""

    benchmark: str
    metric: str
    errors: np.ndarray
    stats: BoxplotStats

    @property
    def median_percent(self) -> float:
        return 100.0 * self.stats.median


def validate_model(
    model: FittedModel,
    data: Mapping[str, np.ndarray],
    benchmark: str = "",
) -> ErrorSummary:
    """Error summary of ``model`` against observed responses in ``data``."""
    observed = np.asarray(data[model.spec.response], dtype=float)
    predicted = model.predict(data)
    errors = prediction_errors(observed, predicted)
    return ErrorSummary(
        benchmark=benchmark,
        metric=model.spec.response,
        errors=errors,
        stats=boxplot_stats(errors),
    )


def overall_median(summaries: Sequence[ErrorSummary]) -> float:
    """Median error pooled across benchmarks (the paper's 'overall median')."""
    if not summaries:
        raise ValidationError("no summaries to pool")
    pooled = np.concatenate([s.errors for s in summaries])
    return float(np.median(pooled))


def error_table(summaries: Sequence[ErrorSummary]) -> Dict[str, float]:
    """Per-benchmark median error (percent), plus the pooled median."""
    table = {s.benchmark: s.median_percent for s in summaries}
    table["overall"] = 100.0 * overall_median(summaries)
    return table
