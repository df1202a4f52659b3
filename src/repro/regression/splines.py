"""Restricted cubic splines (Harrell parameterization).

Section 3.3 models predictor non-linearity with restricted cubic splines:
piecewise cubic polynomials joined at *knots*, constrained to be linear
beyond the boundary knots (which tames the wild tail behaviour of plain
polynomials).  A spline with ``k`` knots contributes ``k-1`` regression
columns: the predictor itself plus ``k-2`` non-linear basis terms.

Knots are placed at fixed quantiles of the predictor's training
distribution (Stone [22]); predictors strongly correlated with the
response get 4 knots, weaker ones 3 (Section 3.3).

:func:`rcs_basis` computes every truncated cube ``(x - t_j)+^3`` in one
broadcast over the knots, then forms the restricted columns with the same
elementwise operations, in the same order, as a per-knot loop would: the
basis is bitwise that loop's, one numpy pass instead of ``k``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class SplineError(ValueError):
    """Raised for degenerate knot specifications."""


#: Harrell's default knot quantiles by knot count.
HARRELL_QUANTILES = {
    3: (0.10, 0.50, 0.90),
    4: (0.05, 0.35, 0.65, 0.95),
    5: (0.05, 0.275, 0.50, 0.725, 0.95),
    6: (0.05, 0.23, 0.41, 0.59, 0.77, 0.95),
    7: (0.025, 0.1833, 0.3417, 0.50, 0.6583, 0.8167, 0.975),
}


def quantile_knots(x: np.ndarray, n_knots: int) -> np.ndarray:
    """Knot positions at Harrell's default quantiles of ``x``.

    Discrete microarchitectural predictors have few distinct levels; when
    quantiles collide the knots are thinned to the distinct values.  The
    caller should check the returned length: fewer than 3 knots means "use
    a linear term".
    """
    if n_knots not in HARRELL_QUANTILES:
        raise SplineError(
            f"unsupported knot count {n_knots}; supported: "
            f"{sorted(HARRELL_QUANTILES)}"
        )
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise SplineError("cannot place knots on an empty sample")
    knots = np.unique(np.quantile(x, HARRELL_QUANTILES[n_knots]))
    if knots.size >= 3:
        return knots
    unique_values = np.unique(x)
    if unique_values.size >= 3:
        # Quantiles collapsed (heavily discrete predictor): spread knots
        # over the distinct values instead.
        indices = np.linspace(
            0, unique_values.size - 1, min(n_knots, unique_values.size)
        )
        knots = np.unique(unique_values[np.round(indices).astype(int)])
    return knots


def rcs_basis(x: np.ndarray, knots: Sequence[float]) -> np.ndarray:
    """Restricted cubic spline design columns for ``x``.

    Returns an (n, k-1) matrix: column 0 is ``x`` itself, columns 1..k-2
    are the non-linear restricted terms

    ``[(x-t_j)+^3 - (x-t_{k-1})+^3 (t_k-t_j)/(t_k-t_{k-1})
       + (x-t_k)+^3 (t_{k-1}-t_j)/(t_k-t_{k-1})] / (t_k-t_1)^2``

    which are linear for ``x`` beyond the boundary knots.
    """
    x = np.asarray(x, dtype=float)
    knots = np.asarray(knots, dtype=float)
    if knots.size < 3:
        raise SplineError(
            f"restricted cubic splines need >= 3 knots, got {knots.size}"
        )
    if (np.diff(knots) <= 0).any():
        raise SplineError(f"knots must be strictly increasing, got {knots}")
    t_first, t_last, t_penult = knots[0], knots[-1], knots[-2]
    scale = (t_last - t_first) ** 2
    denom = t_last - t_penult

    # Every truncated cube (x - t_j)+^3 in one broadcast: column j is knot j.
    shifted = x[:, None] - knots
    cubes = np.where(shifted > 0, shifted**3, 0.0)
    penult = cubes[:, -2:-1]
    tail = cubes[:, -1:]
    head = knots[:-2]
    restricted = (
        cubes[:, :-2]
        - penult * (t_last - head) / denom
        + tail * (t_penult - head) / denom
    ) / scale
    return np.column_stack([x, restricted])


def rcs_column_names(name: str, n_knots: int) -> Tuple[str, ...]:
    """Column labels for the basis of a ``n_knots``-knot spline on ``name``."""
    return (name,) + tuple(name + "'" * (j + 1) for j in range(n_knots - 2))
