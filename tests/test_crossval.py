"""Tests for k-fold cross-validation."""

import numpy as np
import pytest

from repro.regression import (
    FitError,
    LinearTerm,
    ModelSpec,
    SplineTerm,
    cross_validate,
)


def make_data(n=200, noise=0.2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1, 10, n)
    y = 3.0 + 2.0 * x + noise * rng.standard_normal(n)
    return {"x": x, "y": y}


class TestCrossValidation:
    def test_pooled_error_count(self):
        data = make_data()
        result = cross_validate(ModelSpec("y", (LinearTerm("x"),)), data, folds=5)
        assert result.errors.size == 200
        assert result.folds == 5
        assert len(result.fold_medians) == 5

    def test_accurate_model_has_small_cv_error(self):
        data = make_data(noise=0.05)
        result = cross_validate(ModelSpec("y", (LinearTerm("x"),)), data)
        assert result.median_percent < 2.0

    def test_cv_detects_worse_model(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 10, 300)
        data = {"x": x, "y": np.exp(x / 3) + 0.1 * rng.standard_normal(300)}
        linear = cross_validate(ModelSpec("y", (LinearTerm("x"),)), data)
        spline = cross_validate(ModelSpec("y", (SplineTerm("x", knots=5),)), data)
        assert spline.median < linear.median

    def test_deterministic_with_seed(self):
        data = make_data()
        spec = ModelSpec("y", (LinearTerm("x"),))
        a = cross_validate(spec, data, seed=3)
        b = cross_validate(spec, data, seed=3)
        assert np.allclose(np.sort(a.errors), np.sort(b.errors))

    def test_rejects_single_fold(self):
        with pytest.raises(FitError):
            cross_validate(ModelSpec("y", (LinearTerm("x"),)), make_data(), folds=1)

    def test_rejects_more_folds_than_points(self):
        with pytest.raises(FitError):
            cross_validate(
                ModelSpec("y", (LinearTerm("x"),)), make_data(n=60), folds=100
            )
