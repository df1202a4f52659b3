"""Predictor importance by variance decomposition.

Which design parameters drive performance and power for a given workload?
The paper's companion derivation ranked predictors by association strength
to assign spline knots (Section 3.3); this module quantifies importance on
the *fitted* model with the standard drop-one construction: refit the
model without all terms touching a predictor and record the R^2 loss
(partial R^2).  Interactions are charged to both of their predictors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from .fit import FitError, fit_models
from .formula import ModelSpec


@dataclass(frozen=True)
class PredictorImportance:
    """Importance of every predictor of one model on one dataset."""

    response: str
    full_r_squared: float
    partial_r_squared: Dict[str, float]

    def ranked(self) -> List[str]:
        """Predictors from most to least important."""
        return sorted(
            self.partial_r_squared,
            key=lambda name: -self.partial_r_squared[name],
        )

    def shares(self) -> Dict[str, float]:
        """Importance normalized to sum to 1 (degenerate: uniform)."""
        if not self.partial_r_squared:
            return {}
        total = sum(max(v, 0.0) for v in self.partial_r_squared.values())
        if total <= 0:
            n = len(self.partial_r_squared)
            return {name: 1.0 / n for name in self.partial_r_squared}
        return {
            name: max(value, 0.0) / total
            for name, value in self.partial_r_squared.items()
        }


def predictor_importance(
    spec: ModelSpec, data: Mapping[str, np.ndarray]
) -> PredictorImportance:
    """Drop-one partial R^2 for every predictor referenced by ``spec``."""
    reduced_specs = []
    for predictor in spec.predictors:
        remaining = tuple(
            term for term in spec.terms if predictor not in term.predictors
        )
        if not remaining:
            raise FitError(
                f"cannot drop {predictor!r}: no terms would remain"
            )
        reduced_specs.append(spec.with_terms(remaining, name=f"drop-{predictor}"))
    # One call binds the full spec's terms once; every drop-one spec
    # reuses a subset of them.
    full, *reduced = fit_models([spec] + reduced_specs, data)
    partial: Dict[str, float] = {
        predictor: full.r_squared - model.r_squared
        for predictor, model in zip(spec.predictors, reduced)
    }
    return PredictorImportance(
        response=spec.response,
        full_r_squared=full.r_squared,
        partial_r_squared=partial,
    )
