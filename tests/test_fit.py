"""Tests for OLS fitting and prediction."""

import numpy as np
import pytest

from repro.regression import (
    FitError,
    InteractionTerm,
    LinearTerm,
    LogTransform,
    ModelSpec,
    SplineTerm,
    SqrtTransform,
    fit_ols,
)


def linear_data(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0, 10, n)
    x2 = rng.uniform(-5, 5, n)
    y = 3.0 + 2.0 * x1 - 1.5 * x2 + noise * rng.standard_normal(n)
    return {"x1": x1, "x2": x2, "y": y}


class TestExactRecovery:
    def test_recovers_linear_coefficients(self):
        data = linear_data()
        spec = ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2")))
        model = fit_ols(spec, data)
        # The intercept comes first, then the columns in column_names order.
        assert model.column_names == ("x1", "x2")
        intercept, x1, x2 = model.coefficients
        assert intercept == pytest.approx(3.0, abs=1e-8)
        assert x1 == pytest.approx(2.0, abs=1e-8)
        assert x2 == pytest.approx(-1.5, abs=1e-8)

    def test_r_squared_one_on_exact_data(self):
        data = linear_data()
        model = fit_ols(ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))), data)
        assert model.r_squared == pytest.approx(1.0)

    def test_interaction_recovery(self):
        rng = np.random.default_rng(3)
        x1 = rng.uniform(0, 4, 300)
        x2 = rng.uniform(0, 4, 300)
        data = {"x1": x1, "x2": x2, "y": 1.0 + 0.5 * x1 * x2}
        spec = ModelSpec(
            "y", (LinearTerm("x1"), LinearTerm("x2"), InteractionTerm("x1", "x2"))
        )
        model = fit_ols(spec, data)
        column = 1 + model.column_names.index("x1*x2")
        assert model.coefficients[column] == pytest.approx(0.5, abs=1e-8)

    def test_sqrt_transform_round_trip(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(1, 5, 200)
        y = (2.0 + 0.7 * x) ** 2
        spec = ModelSpec("y", (LinearTerm("x"),), transform=SqrtTransform())
        model = fit_ols(spec, {"x": x, "y": y})
        prediction = model.predict({"x": np.array([3.0])})
        assert prediction[0] == pytest.approx((2.0 + 2.1) ** 2, rel=1e-6)

    def test_log_transform_round_trip(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2, 200)
        y = np.exp(1.0 + 0.5 * x)
        spec = ModelSpec("y", (LinearTerm("x"),), transform=LogTransform())
        model = fit_ols(spec, {"x": x, "y": y})
        prediction = model.predict({"x": np.array([2.0])})
        assert prediction[0] == pytest.approx(np.exp(2.0), rel=1e-6)

    def test_spline_fits_smooth_nonlinearity_better_than_line(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 10, 500)
        y = np.sin(x / 2.5) + 0.05 * rng.standard_normal(500)
        data = {"x": x, "y": y}
        linear = fit_ols(ModelSpec("y", (LinearTerm("x"),)), data)
        spline = fit_ols(ModelSpec("y", (SplineTerm("x", knots=5),)), data)
        assert spline.r_squared > linear.r_squared + 0.2


class TestPredictionShape:
    def test_predict_matches_input_length(self):
        data = linear_data()
        model = fit_ols(ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))), data)
        out = model.predict({"x1": np.arange(5.0), "x2": np.zeros(5)})
        assert out.shape == (5,)

    def test_predict_transformed_scale(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(1, 4, 100)
        y = (1.0 + x) ** 2
        spec = ModelSpec("y", (LinearTerm("x"),), transform=SqrtTransform())
        model = fit_ols(spec, {"x": x, "y": y})
        z = model.predict_transformed({"x": np.array([2.0])})
        assert z[0] == pytest.approx(3.0, rel=1e-6)


class TestErrors:
    def test_missing_response(self):
        with pytest.raises(FitError, match="response"):
            fit_ols(ModelSpec("z", (LinearTerm("x1"),)), linear_data())

    def test_underdetermined(self):
        data = {"x": np.arange(3.0), "y": np.arange(3.0)}
        spec = ModelSpec("y", (SplineTerm("x", knots=3),))
        with pytest.raises(FitError, match="observations"):
            fit_ols(spec, data)

    def test_two_dimensional_response_rejected(self):
        data = {"x": np.arange(10.0), "y": np.zeros((10, 2))}
        with pytest.raises(FitError):
            fit_ols(ModelSpec("y", (LinearTerm("x"),)), data)

    def test_spec_requires_terms(self):
        with pytest.raises(Exception):
            ModelSpec("y", ())


class TestStatistics:
    def test_noise_degrades_r_squared(self):
        clean = fit_ols(
            ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))), linear_data()
        )
        noisy = fit_ols(
            ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))),
            linear_data(noise=3.0),
        )
        assert noisy.r_squared < clean.r_squared

    def test_adjusted_r_squared_below_r_squared(self):
        model = fit_ols(
            ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))),
            linear_data(noise=2.0),
        )
        assert model.adjusted_r_squared < model.r_squared

    def test_degrees_of_freedom(self):
        model = fit_ols(
            ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))), linear_data(n=50)
        )
        assert model.degrees_of_freedom == 50 - 3

    def test_residual_variance_tracks_noise(self):
        model = fit_ols(
            ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))),
            linear_data(n=2000, noise=2.0),
        )
        assert np.sqrt(model.residual_variance) == pytest.approx(2.0, rel=0.1)

    def test_standard_errors_positive_with_noise(self):
        model = fit_ols(
            ModelSpec("y", (LinearTerm("x1"), LinearTerm("x2"))),
            linear_data(noise=1.0),
        )
        assert (model.standard_errors() > 0).all()


class TestSpecHelpers:
    def test_predictors_deduplicated(self):
        spec = ModelSpec(
            "y",
            (LinearTerm("a"), SplineTerm("b"), InteractionTerm("a", "b")),
        )
        assert spec.predictors == ("a", "b")

    def test_with_terms(self):
        spec = ModelSpec("y", (LinearTerm("a"),), name="orig")
        other = spec.with_terms((LinearTerm("b"),), name="alt")
        assert other.response == "y"
        assert other.name == "alt"
        assert other.terms[0].name == "b"
