"""Tests for restricted cubic splines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.regression import (
    HARRELL_QUANTILES,
    SplineError,
    quantile_knots,
    rcs_basis,
    rcs_column_names,
)


class TestKnots:
    def test_quantile_positions(self):
        x = np.linspace(0, 100, 1001)
        knots = quantile_knots(x, 3)
        assert knots == pytest.approx([10, 50, 90], abs=0.5)

    def test_four_knot_positions(self):
        x = np.linspace(0, 100, 1001)
        knots = quantile_knots(x, 4)
        assert knots == pytest.approx([5, 35, 65, 95], abs=0.5)

    def test_discrete_predictor_thinning(self):
        # width takes three values; knots must still be usable
        x = np.array([2.0, 4.0, 8.0] * 50)
        knots = quantile_knots(x, 4)
        assert len(knots) >= 3
        assert len(np.unique(knots)) == len(knots)

    def test_constant_predictor_collapses(self):
        knots = quantile_knots(np.full(100, 7.0), 3)
        assert len(knots) < 3  # caller must fall back to linear

    def test_unsupported_knot_count(self):
        with pytest.raises(SplineError):
            quantile_knots(np.arange(10.0), 8)

    def test_empty_sample(self):
        with pytest.raises(SplineError):
            quantile_knots(np.array([]), 3)

    def test_supported_counts_documented(self):
        assert set(HARRELL_QUANTILES) == {3, 4, 5, 6, 7}


class TestBasis:
    KNOTS = np.array([1.0, 3.0, 6.0, 10.0])

    def test_shape(self):
        x = np.linspace(0, 12, 50)
        basis = rcs_basis(x, self.KNOTS)
        assert basis.shape == (50, 3)  # k-1 columns

    def test_first_column_is_x(self):
        x = np.linspace(0, 12, 50)
        assert (rcs_basis(x, self.KNOTS)[:, 0] == x).all()

    def test_zero_below_first_knot(self):
        x = np.linspace(-5, 0.99, 20)
        basis = rcs_basis(x, self.KNOTS)
        assert np.allclose(basis[:, 1:], 0.0)

    def test_linear_beyond_boundary_knots(self):
        # second differences vanish outside [t1, tk]
        for segment in (np.linspace(-10, 0.9, 30), np.linspace(10.1, 30, 30)):
            basis = rcs_basis(segment, self.KNOTS)
            for j in range(basis.shape[1]):
                second_diff = np.diff(basis[:, j], n=2)
                assert np.allclose(second_diff, 0.0, atol=1e-8), j

    def test_continuity_of_second_derivative(self):
        # numerically estimate f'' just left/right of each interior knot
        h = 1e-5
        for knot in self.KNOTS[1:-1]:
            for j in range(1, 3):
                def f(v):
                    return rcs_basis(np.array([v]), self.KNOTS)[0, j]

                left = (f(knot - h) - 2 * f(knot - 2 * h) + f(knot - 3 * h)) / h**2
                right = (f(knot + 3 * h) - 2 * f(knot + 2 * h) + f(knot + h)) / h**2
                assert left == pytest.approx(right, abs=1e-2)

    def test_rejects_too_few_knots(self):
        with pytest.raises(SplineError):
            rcs_basis(np.arange(5.0), [1.0, 2.0])

    def test_rejects_unsorted_knots(self):
        with pytest.raises(SplineError):
            rcs_basis(np.arange(5.0), [3.0, 1.0, 2.0])

    def test_rejects_duplicate_knots(self):
        with pytest.raises(SplineError):
            rcs_basis(np.arange(5.0), [1.0, 1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40))
    def test_basis_finite(self, values):
        basis = rcs_basis(np.array(values), self.KNOTS)
        assert np.isfinite(basis).all()

    def test_five_knots_give_four_columns(self):
        knots = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
        assert rcs_basis(np.linspace(0, 12, 10), knots).shape == (10, 4)



def per_knot_rcs_basis(x, knots):
    """Reference basis: one truncated cube per knot, one column at a time."""
    x = np.asarray(x, dtype=float)
    knots = np.asarray(knots, dtype=float)
    t_first, t_last, t_penult = knots[0], knots[-1], knots[-2]
    scale = (t_last - t_first) ** 2

    def plus_cubed(values, knot):
        shifted = values - knot
        return np.where(shifted > 0, shifted**3, 0.0)

    columns = [x]
    tail = plus_cubed(x, t_last)
    penult = plus_cubed(x, t_penult)
    denom = t_last - t_penult
    for j in range(knots.size - 2):
        t_j = knots[j]
        basis = (
            plus_cubed(x, t_j)
            - penult * (t_last - t_j) / denom
            + tail * (t_penult - t_j) / denom
        ) / scale
        columns.append(basis)
    return np.column_stack(columns)


class TestBroadcastBasis:
    """The one-broadcast basis runs the per-knot loop's elementwise
    operations in the same order, so it must match it byte for byte; a
    reordered or re-associated formula would fail here."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 7),
        st.booleans(),
        st.lists(st.integers(0, 9), min_size=1, max_size=60),
        st.lists(st.floats(-100, 100), min_size=1, max_size=60),
        st.lists(st.floats(-200, 200), max_size=10),
    )
    def test_matches_per_knot_oracle(self, n_knots, discrete, levels, reals, probes):
        # discrete: grid levels, as the design encoder's log2 codes arrive
        x = np.array(levels if discrete else reals, dtype=float)
        knots = quantile_knots(x, n_knots)
        if knots.size < 3:
            return
        # evaluate on the sample, the knots themselves and far outside them
        points = np.concatenate([x, knots, np.array(probes, dtype=float)])
        expected = per_knot_rcs_basis(points, knots)
        basis = rcs_basis(points, knots)
        assert basis.shape == expected.shape
        assert basis.tobytes() == expected.tobytes()

    def test_collapsed_quantiles_still_thinned(self):
        # 95% of the mass on one level collapses every Harrell quantile
        # but one; the knots spread over the distinct values instead.
        x = np.array([0.0] * 95 + [1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.unique(np.quantile(x, HARRELL_QUANTILES[4])).size < 3
        assert quantile_knots(x, 4).tolist() == [0.0, 2.0, 3.0, 5.0]


class TestNames:
    def test_column_names(self):
        assert rcs_column_names("depth", 4) == ("depth", "depth'", "depth''")

    def test_three_knots(self):
        assert rcs_column_names("l2", 3) == ("l2", "l2'")
