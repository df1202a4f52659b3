"""Statistical inference on fitted models.

The paper's model derivation used significance testing (Section 3); this
module provides the standard OLS machinery: per-coefficient t-tests and
nested-model F-tests (used to check whether e.g. an interaction block
earns its keep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .fit import FitError, FittedModel


@dataclass(frozen=True)
class CoefficientTest:
    """One row of the coefficient significance table."""

    name: str
    estimate: float
    std_error: float
    t_statistic: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def coefficient_tests(model: FittedModel) -> List[CoefficientTest]:
    """t-test of each coefficient against zero."""
    from scipy import stats as scipy_stats

    dof = model.degrees_of_freedom
    if dof <= 0:
        raise FitError("no residual degrees of freedom for inference")
    errors = model.standard_errors()
    names = ("(intercept)",) + model.column_names
    rows = []
    for name, estimate, se in zip(names, model.coefficients, errors):
        if se > 0:
            t = float(estimate / se)
            p = 2.0 * float(scipy_stats.t.sf(abs(t), dof))
        else:
            t, p = float("nan"), float("nan")
        rows.append(
            CoefficientTest(
                name=name,
                estimate=float(estimate),
                std_error=float(se),
                t_statistic=t,
                p_value=p,
            )
        )
    return rows


@dataclass(frozen=True)
class FTest:
    statistic: float
    df_numerator: int
    df_denominator: int
    p_value: float


def nested_f_test(full: FittedModel, reduced: FittedModel) -> FTest:
    """F-test comparing a full model against a nested reduced model.

    Both models must be fit to the same observations (same n and the same
    transformed response); the reduced model must have fewer parameters.
    """
    from scipy import stats as scipy_stats

    if full.n_observations != reduced.n_observations:
        raise FitError("nested models must share the training sample")
    extra = full.n_parameters - reduced.n_parameters
    if extra <= 0:
        raise FitError("the full model must have more parameters")
    dof = full.degrees_of_freedom
    if dof <= 0:
        raise FitError("no residual degrees of freedom for inference")
    rss_full = full.residual_variance * full.degrees_of_freedom
    rss_reduced = reduced.residual_variance * reduced.degrees_of_freedom
    if rss_full <= 0:
        return FTest(float("inf"), extra, dof, 0.0)
    f = ((rss_reduced - rss_full) / extra) / (rss_full / dof)
    f = max(f, 0.0)
    return FTest(
        statistic=float(f),
        df_numerator=extra,
        df_denominator=dof,
        p_value=float(scipy_stats.f.sf(f, extra, dof)),
    )
