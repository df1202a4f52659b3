"""Tests for error metrics and boxplot statistics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.regression import (
    LinearTerm,
    ModelSpec,
    ValidationError,
    boxplot_stats,
    error_table,
    fit_ols,
    overall_median,
    prediction_errors,
    validate_model,
)


class TestPredictionErrors:
    def test_paper_formula(self):
        errors = prediction_errors(np.array([11.0]), np.array([10.0]))
        assert errors[0] == pytest.approx(0.1)

    def test_symmetric_in_magnitude(self):
        errors = prediction_errors(np.array([9.0, 11.0]), np.array([10.0, 10.0]))
        assert errors[0] == errors[1] == pytest.approx(0.1)

    def test_rejects_zero_prediction(self):
        with pytest.raises(ValidationError):
            prediction_errors(np.array([1.0]), np.array([0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            prediction_errors(np.array([1.0]), np.array([1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            prediction_errors(np.array([]), np.array([]))


class TestBoxplotStats:
    def test_median_and_quartiles(self):
        stats = boxplot_stats(np.arange(1.0, 101.0))
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)

    def test_no_outliers_in_uniform(self):
        assert boxplot_stats(np.arange(100.0)).outliers == ()

    def test_whiskers_at_extremes_without_outliers(self):
        stats = boxplot_stats(np.arange(100.0))
        assert stats.whisker_low == 0.0
        assert stats.whisker_high == 99.0

    def test_detects_outlier(self):
        values = list(np.arange(20.0)) + [1000.0]
        stats = boxplot_stats(values)
        assert stats.outliers == (1000.0,)
        assert stats.whisker_high == 19.0

    def test_paper_whisker_rule(self):
        # whisker = most extreme point within 1.5 IQR of the quartile
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 11.0]
        stats = boxplot_stats(values)
        assert stats.whisker_high <= stats.q3 + 1.5 * (stats.q3 - stats.q1)

    def test_single_value(self):
        stats = boxplot_stats([5.0])
        assert stats.median == 5.0
        assert stats.n == 1

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            boxplot_stats([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_invariants(self, values):
        stats = boxplot_stats(values)
        assert stats.q1 <= stats.median <= stats.q3
        # whiskers stay inside the data range (they sit *at* data points
        # unless everything on that side is an outlier)
        assert min(values) <= stats.whisker_low <= max(values)
        assert min(values) <= stats.whisker_high <= max(values)
        assert stats.n == len(values)
        # every outlier lies beyond the 1.5-IQR band
        for outlier in stats.outliers:
            iqr = stats.q3 - stats.q1
            low, high = stats.q1 - 1.5 * iqr, stats.q3 + 1.5 * iqr
            assert outlier < low or outlier > high


class TestModelValidation:
    def make_model_and_data(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(1, 10, 200)
        y = 5.0 + 2.0 * x + 0.1 * rng.standard_normal(200)
        train = {"x": x, "y": y}
        model = fit_ols(ModelSpec("y", (LinearTerm("x"),)), train)
        x_val = rng.uniform(1, 10, 40)
        validation = {"x": x_val, "y": 5.0 + 2.0 * x_val}
        return model, validation

    def test_validate_model_small_errors(self):
        model, validation = self.make_model_and_data()
        summary = validate_model(model, validation, "toy")
        assert summary.median_percent < 2.0
        assert summary.benchmark == "toy"
        assert summary.metric == "y"

    def test_error_table_contains_overall(self):
        model, validation = self.make_model_and_data()
        summary = validate_model(model, validation, "toy")
        table = error_table([summary])
        assert set(table) == {"toy", "overall"}

    def test_overall_median_pools(self):
        model, validation = self.make_model_and_data()
        a = validate_model(model, validation, "a")
        b = validate_model(model, validation, "b")
        pooled = overall_median([a, b])
        assert pooled == pytest.approx(np.median(np.concatenate([a.errors, b.errors])))

    def test_overall_median_empty(self):
        with pytest.raises(ValidationError):
            overall_median([])
