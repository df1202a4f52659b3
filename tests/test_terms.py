"""Tests for model terms and design-matrix assembly."""

import numpy as np
import pytest

from repro.regression import (
    InteractionTerm,
    LinearTerm,
    SplineTerm,
    TermError,
    design_matrix,
)
from repro.regression.terms import column_names


@pytest.fixture
def data():
    rng = np.random.default_rng(1)
    return {
        "depth": rng.choice([12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0], 200),
        "width": rng.choice([1.0, 2.0, 3.0], 200),  # log2-encoded 2/4/8
        "l2": rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], 200),
    }


class TestLinearTerm:
    def test_single_column(self, data):
        bound = LinearTerm("depth").bind(data)
        columns = bound.design_columns(data)
        assert columns.shape == (200, 1)
        assert (columns[:, 0] == data["depth"]).all()

    def test_column_name(self, data):
        assert LinearTerm("depth").bind(data).column_names == ("depth",)

    def test_missing_predictor(self, data):
        with pytest.raises(TermError, match="available"):
            LinearTerm("bogus").bind(data)

    def test_predictors_property(self):
        assert LinearTerm("depth").predictors == ("depth",)


class TestSplineTerm:
    def test_four_knot_columns(self, data):
        bound = SplineTerm("depth", knots=4).bind(data)
        assert bound.design_columns(data).shape == (200, 3)
        assert bound.column_names == ("depth", "depth'", "depth''")

    def test_binding_freezes_knots(self, data):
        bound = SplineTerm("depth", knots=4).bind(data)
        other = {k: v[:10] for k, v in data.items()}
        first = bound.design_columns(other)
        again = bound.design_columns(other)
        assert (first == again).all()

    def test_falls_back_to_linear_on_constant(self, data):
        constant = dict(data, depth=np.full(200, 18.0))
        bound = SplineTerm("depth", knots=4).bind(constant)
        assert bound.column_names == ("depth",)

    def test_three_level_predictor_gets_spline(self, data):
        bound = SplineTerm("width", knots=3).bind(data)
        assert len(bound.column_names) == 2

    def test_rejects_too_few_knots(self):
        with pytest.raises(TermError):
            SplineTerm("depth", knots=2)


class TestInteractionTerm:
    def test_linear_product(self, data):
        bound = InteractionTerm("depth", "l2").bind(data)
        columns = bound.design_columns(data)
        assert columns.shape == (200, 1)
        assert columns[:, 0] == pytest.approx(data["depth"] * data["l2"])

    def test_column_name(self, data):
        assert InteractionTerm("depth", "l2").bind(data).column_names == ("depth*l2",)

    def test_rejects_self_interaction(self):
        with pytest.raises(TermError):
            InteractionTerm("depth", "depth")

    def test_predictors_property(self):
        assert InteractionTerm("a", "b").predictors == ("a", "b")


class TestAssembly:
    def test_column_names(self, data):
        bound = (SplineTerm("depth", knots=3).bind(data), LinearTerm("l2").bind(data))
        assert column_names(bound) == ("depth", "depth'", "l2")

    def test_duplicate_columns_rejected(self, data):
        bound = (LinearTerm("depth").bind(data), LinearTerm("depth").bind(data))
        with pytest.raises(TermError, match="duplicate"):
            column_names(bound)

    def test_design_matrix_has_intercept(self, data):
        bound = (LinearTerm("depth").bind(data),)
        matrix = design_matrix(bound, data)
        assert matrix.shape == (200, 2)
        assert (matrix[:, 0] == 1.0).all()

    def test_design_matrix_needs_terms(self, data):
        with pytest.raises(TermError):
            design_matrix([], data)
