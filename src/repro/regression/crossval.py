"""Cross-validation.

The paper validates on a held-out random sample (Figure 1); k-fold
cross-validation is the standard complement when simulations are too
precious to hold out — every observation serves in both roles.  Used by
the sample-size ablation and available for model selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

import numpy as np

from .fit import FitError, fit_ols
from .formula import ModelSpec
from .validation import prediction_errors


@dataclass
class CrossValidationResult:
    """Per-fold and pooled error summary."""

    spec_name: str
    folds: int
    fold_medians: List[float]
    errors: np.ndarray  # pooled out-of-fold relative errors

    @property
    def median(self) -> float:
        return float(np.median(self.errors))

    @property
    def median_percent(self) -> float:
        return 100.0 * self.median


def _fold_indices(n: int, folds: int, seed: Optional[int]) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return [order[i::folds] for i in range(folds)]


def cross_validate(
    spec: ModelSpec,
    data: Mapping[str, np.ndarray],
    folds: int = 5,
    seed: Optional[int] = 0,
) -> CrossValidationResult:
    """K-fold cross-validation of ``spec`` on ``data``.

    Each fold is held out once; the model is fit to the remainder and the
    held-out relative errors (``|obs-pred|/pred``) are pooled.
    """
    if folds < 2:
        raise FitError(f"need at least 2 folds, got {folds}")
    y = np.asarray(data[spec.response], dtype=float)
    n = y.size
    if n < folds:
        raise FitError(f"cannot split {n} observations into {folds} folds")

    all_errors: List[np.ndarray] = []
    fold_medians: List[float] = []
    for held_out in _fold_indices(n, folds, seed):
        mask = np.ones(n, dtype=bool)
        mask[held_out] = False
        train = {k: np.asarray(v)[mask] for k, v in data.items()}
        test = {k: np.asarray(v)[held_out] for k, v in data.items()}
        model = fit_ols(spec, train)
        errors = prediction_errors(
            np.asarray(test[spec.response], dtype=float), model.predict(test)
        )
        all_errors.append(errors)
        fold_medians.append(float(np.median(errors)))
    return CrossValidationResult(
        spec_name=spec.name or spec.response,
        folds=folds,
        fold_medians=fold_medians,
        errors=np.concatenate(all_errors),
    )
