"""End-to-end tests of the extended (future-work) design space.

Section 8 proposes adding cache associativity and in-order execution; the
library supports both through :func:`repro.designspace.extended_space`,
the simulator's config resolution, and the extended model presets.
"""

import numpy as np
import pytest

from repro.designspace import DesignEncoder, extended_space, sample_uar
from repro.regression import (
    extended_performance_spec,
    extended_power_spec,
    fit_ols,
    prediction_errors,
)
from repro.simulator import Simulator, config_from_point
from repro.workloads import generate_trace, get_profile


@pytest.fixture(scope="module")
def extended_dataset():
    """Simulate a small UAR sample of the extended space on gzip."""
    space = extended_space()
    simulator = Simulator()
    trace = generate_trace(get_profile("gzip"), 1200, seed=9)
    points = sample_uar(space, 90, seed=9)
    results = simulator.simulate(
        trace, [config_from_point(space, p) for p in points]
    )
    encoder = DesignEncoder(space)
    matrix = encoder.encode(points)
    data = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
    data["bips"] = np.array([r.bips for r in results])
    data["watts"] = np.array([r.watts for r in results])
    return space, points, data


class TestExtendedSimulation:
    def test_in_order_points_are_slower(self, extended_dataset):
        space, points, data = extended_dataset
        in_order = np.array([p["in_order"] for p in points], dtype=bool)
        if in_order.any() and (~in_order).any():
            assert data["bips"][in_order].mean() < data["bips"][~in_order].mean()

    def test_all_simulations_completed(self, extended_dataset):
        _, points, data = extended_dataset
        assert data["bips"].shape == (len(points),)
        assert (data["watts"] > 0).all()


class TestExtendedModels:
    def test_performance_model_fits(self, extended_dataset):
        _, _, data = extended_dataset
        model = fit_ols(extended_performance_spec(), data)
        assert model.r_squared > 0.7

    def test_power_model_fits(self, extended_dataset):
        _, _, data = extended_dataset
        model = fit_ols(extended_power_spec(), data)
        assert model.r_squared > 0.9

    def test_extended_predictors_present(self):
        spec = extended_performance_spec()
        assert "dl1_assoc" in spec.predictors
        assert "in_order" in spec.predictors

    def test_in_order_effect_predicted(self, extended_dataset):
        space, _, data = extended_dataset
        model = fit_ols(extended_performance_spec(), data)
        base = space.snap(
            depth=18, width=4, gpr_phys=80, br_resv=12,
            il1_kb=64, dl1_kb=32, l2_mb=2.0, dl1_assoc=2, in_order=0,
        )
        encoder = DesignEncoder(space)
        matrix = encoder.encode([base, base.replace(in_order=1)])
        columns = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
        ooo, ino = model.predict(columns)
        assert ino < ooo

    def test_validation_error_reasonable(self, extended_dataset):
        _, _, data = extended_dataset
        n = data["bips"].size
        train = {k: v[: n - 15] for k, v in data.items()}
        test = {k: v[n - 15 :] for k, v in data.items()}
        model = fit_ols(extended_performance_spec(), train)
        errors = prediction_errors(test["bips"], model.predict(test))
        assert np.median(errors) < 0.25
