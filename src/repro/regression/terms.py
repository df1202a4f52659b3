"""Model terms.

A model specification is a list of terms; each term expands one or two
predictors into design-matrix columns.  Terms are declared unbound
(:class:`LinearTerm`, :class:`SplineTerm`, :class:`InteractionTerm`) and
bound to a training sample with :meth:`Term.bind`, which freezes
data-dependent state — spline knot positions — so that predictions use the
training-time basis (Section 3.3's quantile knots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .splines import SplineError, quantile_knots, rcs_basis, rcs_column_names

Columns = Mapping[str, np.ndarray]


class TermError(ValueError):
    """Raised for malformed terms or missing predictors."""


def _column(data: Columns, name: str) -> np.ndarray:
    try:
        return np.asarray(data[name], dtype=float)
    except KeyError:
        raise TermError(
            f"predictor {name!r} missing from data; available: {sorted(data)}"
        ) from None


class BoundTerm:
    """A term with frozen training state; produces design columns."""

    #: names of the produced columns, set at bind time
    column_names: Tuple[str, ...] = ()

    @property
    def predictors(self) -> Tuple[str, ...]:
        """Predictor names the columns depend on (for gather fast paths)."""
        raise NotImplementedError

    def design_columns(self, data: Columns) -> np.ndarray:
        raise NotImplementedError


class Term:
    """Unbound term: declares structure, binds to training data."""

    def bind(self, data: Columns) -> BoundTerm:
        raise NotImplementedError

    @property
    def predictors(self) -> Tuple[str, ...]:
        raise NotImplementedError


# -- linear -------------------------------------------------------------------


@dataclass(frozen=True)
class LinearTerm(Term):
    """A single linear column for one predictor."""

    name: str

    @property
    def predictors(self) -> Tuple[str, ...]:
        return (self.name,)

    def bind(self, data: Columns) -> BoundTerm:
        _column(data, self.name)  # validates presence
        return _BoundLinear(self.name)


class _BoundLinear(BoundTerm):
    def __init__(self, name: str):
        self.name = name
        self.column_names = (name,)

    @property
    def predictors(self) -> Tuple[str, ...]:
        return (self.name,)

    def design_columns(self, data: Columns) -> np.ndarray:
        return _column(data, self.name)[:, None]


# -- splines ------------------------------------------------------------------


@dataclass(frozen=True)
class SplineTerm(Term):
    """Restricted cubic spline on one predictor.

    Falls back to a linear column when the training sample has too few
    distinct values to support 3 knots (e.g. a pinned parameter in a
    constrained study).
    """

    name: str
    knots: int = 4

    def __post_init__(self) -> None:
        if self.knots < 3:
            raise TermError(
                f"spline on {self.name!r} needs >= 3 knots, got {self.knots}"
            )

    @property
    def predictors(self) -> Tuple[str, ...]:
        return (self.name,)

    def bind(self, data: Columns) -> BoundTerm:
        x = _column(data, self.name)
        knots = quantile_knots(x, self.knots)
        if knots.size < 3:
            return _BoundLinear(self.name)
        return _BoundSpline(self.name, knots)


class _BoundSpline(BoundTerm):
    def __init__(self, name: str, knots: np.ndarray):
        self.name = name
        self.knots = knots
        self.column_names = rcs_column_names(name, knots.size)

    @property
    def predictors(self) -> Tuple[str, ...]:
        return (self.name,)

    def design_columns(self, data: Columns) -> np.ndarray:
        return rcs_basis(_column(data, self.name), self.knots)


# -- interactions --------------------------------------------------------------


@dataclass(frozen=True)
class InteractionTerm(Term):
    """Product interaction between two predictors (Section 3.2).

    ``order="linear"`` (the default) adds the single product column
    ``a*b``; ``order="spline"`` crosses the full restricted-cubic basis of
    ``a`` with the linear column of ``b`` (Harrell's restricted
    interaction), capturing non-linear effects whose shape depends on the
    second predictor.
    """

    a: str
    b: str
    order: str = "linear"
    knots: int = 3

    def __post_init__(self) -> None:
        if self.order not in ("linear", "spline"):
            raise TermError(f"unknown interaction order {self.order!r}")
        if self.a == self.b:
            raise TermError(f"interaction of {self.a!r} with itself")

    @property
    def predictors(self) -> Tuple[str, ...]:
        return (self.a, self.b)

    def bind(self, data: Columns) -> BoundTerm:
        _column(data, self.a)
        _column(data, self.b)
        if self.order == "linear":
            return _BoundLinearInteraction(self.a, self.b)
        knots = quantile_knots(_column(data, self.a), self.knots)
        if knots.size < 3:
            return _BoundLinearInteraction(self.a, self.b)
        return _BoundSplineInteraction(self.a, self.b, knots)


class _BoundLinearInteraction(BoundTerm):
    def __init__(self, a: str, b: str):
        self.a, self.b = a, b
        self.column_names = (f"{a}*{b}",)

    @property
    def predictors(self) -> Tuple[str, ...]:
        return (self.a, self.b)

    def design_columns(self, data: Columns) -> np.ndarray:
        return (_column(data, self.a) * _column(data, self.b))[:, None]


class _BoundSplineInteraction(BoundTerm):
    def __init__(self, a: str, b: str, knots: np.ndarray):
        self.a, self.b = a, b
        self.knots = knots
        base_names = rcs_column_names(a, knots.size)
        self.column_names = tuple(f"{name}*{b}" for name in base_names)

    @property
    def predictors(self) -> Tuple[str, ...]:
        return (self.a, self.b)

    def design_columns(self, data: Columns) -> np.ndarray:
        basis = rcs_basis(_column(data, self.a), self.knots)
        return basis * _column(data, self.b)[:, None]


def column_names(bound: Sequence[BoundTerm]) -> Tuple[str, ...]:
    """The design columns of ``bound`` in order; rejects duplicates."""
    names: list = []
    for term in bound:
        names.extend(term.column_names)
    if len(set(names)) != len(names):
        raise TermError(f"duplicate design columns: {names}")
    return tuple(names)


def stack_design(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """An intercept column followed by the terms' column blocks, in order."""
    if not blocks:
        raise TermError("a model needs at least one term")
    n = blocks[0].shape[0]
    return np.hstack([np.ones((n, 1))] + list(blocks))


def design_matrix(bound: Sequence[BoundTerm], data: Columns) -> np.ndarray:
    """Stack all bound terms' columns, prefixed with an intercept column."""
    return stack_design([term.design_columns(data) for term in bound])
