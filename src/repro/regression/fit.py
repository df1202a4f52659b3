"""Ordinary least squares fitting.

The paper fits Equation (1) by the method of least squares; we solve the
normal equations with a numerically stable SVD-based ``lstsq``.  The
returned :class:`FittedModel` carries everything later stages need:
prediction on the original metric scale, coefficients and standard
errors for significance testing, and residual/goodness-of-fit summaries.

:func:`fit_models` fits several specs to one dataset and binds each
distinct term once: the performance and power specs share all their
terms, and a drop-one or ablation spec reuses the full spec's terms, so
each spline's knots are placed and its basis evaluated once per dataset.
Each spec's design matrix is stacked from the shared column blocks in
its own term order, so every fit is bitwise the one :func:`fit_ols`
(a one-spec :func:`fit_models`) would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .formula import ModelSpec
from .terms import BoundTerm, Columns, Term, column_names, design_matrix, stack_design


class FitError(ValueError):
    """Raised for unusable training data."""


@dataclass
class FittedModel:
    """A trained regression model.

    Predictions run the linear system forward and invert the response
    transform; ``predict_transformed`` exposes the transformed scale for
    diagnostics.
    """

    spec: ModelSpec
    bound_terms: Tuple[BoundTerm, ...]
    column_names: Tuple[str, ...]  # excludes the intercept
    coefficients: np.ndarray       # includes the intercept at index 0
    n_observations: int
    residual_variance: float
    r_squared: float
    training_design: np.ndarray = field(repr=False)  # X the model was fit on
    _xtx_inverse: Optional[np.ndarray] = field(
        default=None, init=False, repr=False
    )

    @property
    def xtx_inverse(self) -> np.ndarray:
        """``(X'X)^-1`` of the training design, computed on first read.

        A pseudo-inverse: tolerant of the rank deficiency that
        constrained studies (pinned parameters) can produce.  Only the
        inference helpers read it, so most fits never pay for it.
        """
        if self._xtx_inverse is None:
            X = self.training_design
            self._xtx_inverse = np.linalg.pinv(X.T @ X)
        return self._xtx_inverse

    @property
    def n_parameters(self) -> int:
        return self.coefficients.size

    @property
    def degrees_of_freedom(self) -> int:
        return self.n_observations - self.n_parameters

    @property
    def adjusted_r_squared(self) -> float:
        if self.degrees_of_freedom <= 0:
            return float("nan")
        n, p = self.n_observations, self.n_parameters
        return 1.0 - (1.0 - self.r_squared) * (n - 1) / (n - p)

    def design_matrix(self, data: Columns) -> np.ndarray:
        """Design matrix of ``data`` under this model's bound terms."""
        return design_matrix(self.bound_terms, data)

    def predict_transformed(self, data: Columns) -> np.ndarray:
        """Predictions on the transformed (fitting) scale."""
        return self.design_matrix(data) @ self.coefficients

    def predict(self, data: Columns) -> np.ndarray:
        """Predictions on the original metric scale."""
        return self.spec.transform.inverse(self.predict_transformed(data))

    def standard_errors(self) -> np.ndarray:
        """Standard error of each coefficient."""
        diag = np.maximum(np.diag(self.xtx_inverse), 0.0)
        return np.sqrt(diag * self.residual_variance)


def fit_ols(spec: ModelSpec, data: Mapping[str, np.ndarray]) -> FittedModel:
    """Fit ``spec`` to training ``data`` (columns keyed by name).

    ``data`` must contain the response column and every predictor the
    spec's terms reference.
    """
    return fit_models([spec], data)[0]


def fit_models(
    specs: Sequence[ModelSpec], data: Mapping[str, np.ndarray]
) -> List[FittedModel]:
    """Fit every spec in ``specs`` to the same training ``data``.

    Each distinct term is bound, and its design columns evaluated, once
    for the whole call; the returned models are bitwise the ones
    per-spec :func:`fit_ols` calls would return.
    """
    specs = list(specs)
    if not specs:
        return []
    responses = _checked_responses(specs, data)
    bound: Dict[Term, BoundTerm] = {}
    blocks: Dict[Term, np.ndarray] = {}
    for term in dict.fromkeys(term for spec in specs for term in spec.terms):
        bound[term] = term.bind(data)
        blocks[term] = bound[term].design_columns(data)
    return [
        _fit(
            spec,
            responses[spec.response],
            tuple(bound[term] for term in spec.terms),
            [blocks[term] for term in spec.terms],
        )
        for spec in specs
    ]


def _checked_responses(
    specs: Sequence[ModelSpec], data: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Each distinct response as a float array.

    Checks every response and referenced predictor once, before any
    binding: all must be finite and as long as the first response.  A
    missing predictor is left to binding, which names it.
    """
    responses: Dict[str, np.ndarray] = {}
    for spec in specs:
        if spec.response not in data:
            raise FitError(
                f"response {spec.response!r} missing from data; "
                f"available: {sorted(data)}"
            )
        y_raw = np.asarray(data[spec.response], dtype=float)
        if y_raw.ndim != 1:
            raise FitError("response must be one-dimensional")
        responses[spec.response] = y_raw
    columns = {name: ("response", values) for name, values in responses.items()}
    for spec in specs:
        for name in spec.predictors:
            if name in data and name not in columns:
                columns[name] = ("predictor", np.asarray(data[name], dtype=float))
    first = specs[0].response
    n = responses[first].size
    for name, (role, values) in columns.items():
        if values.shape != (n,):
            raise FitError(
                f"{role} {name!r} has {values.size} rows but response "
                f"{first!r} has {n}"
            )
        bad = values.size - np.count_nonzero(np.isfinite(values))
        if bad:
            raise FitError(
                f"{role} {name!r} has {bad} non-finite row(s) (NaN or inf)"
            )
    return responses


def _fit(
    spec: ModelSpec,
    y_raw: np.ndarray,
    bound: Tuple[BoundTerm, ...],
    blocks: List[np.ndarray],
) -> FittedModel:
    names = column_names(bound)
    X = stack_design(blocks)
    n, p = X.shape
    if n <= p:
        raise FitError(
            f"need more observations ({n}) than parameters ({p}); "
            "increase the sample or simplify the model"
        )

    z = spec.transform.forward(y_raw)
    beta, _, rank, _ = np.linalg.lstsq(X, z, rcond=None)
    residuals = z - X @ beta
    dof = n - p
    sigma2 = float(residuals @ residuals) / dof if dof > 0 else float("nan")
    total = float(((z - z.mean()) ** 2).sum())
    r_squared = 1.0 - float(residuals @ residuals) / total if total > 0 else 1.0

    return FittedModel(
        spec=spec,
        bound_terms=bound,
        column_names=names,
        coefficients=beta,
        n_observations=n,
        residual_variance=sigma2,
        r_squared=r_squared,
        training_design=X,
    )
