"""Tests for coefficient significance tests and nested-model F-tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.regression import (
    FitError,
    LinearTerm,
    ModelSpec,
    coefficient_tests,
    fit_ols,
    nested_f_test,
)


def noisy_data(n=300, seed=0, signal=2.0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, n)
    junk = rng.uniform(0, 10, n)  # unrelated predictor
    y = 1.0 + signal * x + noise * rng.standard_normal(n)
    return {"x": x, "junk": junk, "y": y}


@pytest.fixture(scope="module")
def model():
    return fit_ols(
        ModelSpec("y", (LinearTerm("x"), LinearTerm("junk"))), noisy_data()
    )


class TestCoefficientTests:
    def test_signal_is_significant(self, model):
        rows = {row.name: row for row in coefficient_tests(model)}
        assert rows["x"].significant()
        assert rows["x"].p_value < 1e-10

    def test_junk_is_not_significant(self, model):
        rows = {row.name: row for row in coefficient_tests(model)}
        assert not rows["junk"].significant(alpha=0.01)

    def test_row_count(self, model):
        assert len(coefficient_tests(model)) == 3  # intercept + 2

    def test_t_statistic_sign_matches_estimate(self, model):
        for row in coefficient_tests(model):
            if row.std_error > 0 and row.estimate != 0:
                assert np.sign(row.t_statistic) == np.sign(row.estimate)


class TestFTests:
    def test_nested_prefers_needed_predictor(self):
        data = noisy_data()
        full = fit_ols(ModelSpec("y", (LinearTerm("x"), LinearTerm("junk"))), data)
        reduced = fit_ols(ModelSpec("y", (LinearTerm("junk"),)), data)
        assert nested_f_test(full, reduced).p_value < 0.05

    def test_nested_rejects_useless_predictor(self):
        data = noisy_data()
        full = fit_ols(ModelSpec("y", (LinearTerm("x"), LinearTerm("junk"))), data)
        reduced = fit_ols(ModelSpec("y", (LinearTerm("x"),)), data)
        assert nested_f_test(full, reduced).p_value >= 0.01

    def test_nested_requires_more_parameters(self, model):
        with pytest.raises(FitError):
            nested_f_test(model, model)

    def test_nested_requires_same_sample(self, model):
        other = fit_ols(
            ModelSpec("y", (LinearTerm("x"),)), noisy_data(n=100, seed=2)
        )
        with pytest.raises(FitError):
            nested_f_test(model, other)


def test_importing_the_package_does_not_load_scipy():
    """scipy is imported only inside the inference functions that need
    it, so importing the package and its entry points stays cheap."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    code = (
        "import sys, repro, repro.experiments, repro.studies, "
        "repro.harness, repro.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded[:5])\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, (
        f"scipy loaded at import time: {result.stdout.strip()} "
        f"{result.stderr[-2000:]}"
    )
