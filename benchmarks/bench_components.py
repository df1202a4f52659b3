"""Component microbenchmarks.

The paper's computational-efficiency claim (Section 1, footnote 1: 800
predictions in 15 seconds on a 1.8 GHz Pentium M) rests on the relative
costs of simulation versus regression prediction.  These benches measure
our versions of both, plus the other hot substrate paths.
"""

import numpy as np
import pytest

from repro.cluster import kmeans
from repro.designspace import sample_uar
from repro.regression import rcs_basis
from repro.simulator import Simulator, baseline_config
from repro.workloads import generate_trace, get_profile


@pytest.fixture(scope="module")
def trace():
    return generate_trace(get_profile("gzip"), 4000, seed=1)


def test_simulation_throughput(benchmark, trace):
    """Cycle-level simulation: the expensive path regression replaces."""
    simulator = Simulator()
    [result] = benchmark(simulator.simulate, trace, [baseline_config()])
    assert result.bips > 0


def test_prediction_throughput(benchmark, ctx):
    """Thousands of regression predictions per second (the paper's pitch)."""
    points = sample_uar(ctx.exploration_space, 2000, seed=9)

    def predict():
        return ctx.predict_points("gzip", points)

    table = benchmark(predict)
    assert len(table) == 2000


def test_trace_generation(benchmark):
    """Synthetic trace synthesis (one-time per benchmark per session)."""
    profile = get_profile("mcf")

    def generate():
        return generate_trace(profile, 8000, seed=2)

    trace = benchmark(generate)
    assert len(trace) == 8000


def test_spline_basis(benchmark):
    """Restricted cubic spline basis expansion over a large column."""
    x = np.random.default_rng(0).uniform(0, 30, 100_000)
    knots = np.array([12.0, 18.0, 24.0, 30.0])
    basis = benchmark(rcs_basis, x, knots)
    assert basis.shape == (100_000, 3)


def test_kmeans_clustering(benchmark):
    """K-means over architecture vectors (Section 6's workhorse)."""
    rng = np.random.default_rng(3)
    points = rng.random((200, 7))
    result = benchmark(kmeans, points, 4, seed=0, restarts=10)
    assert result.k == 4


def test_model_fit(benchmark, ctx):
    """One OLS fit of the paper's performance model."""
    from repro.regression import fit_ols, performance_spec

    data = ctx.campaign.dataset("gzip", "train").columns()
    model = benchmark(fit_ols, performance_spec(), data)
    assert model.r_squared > 0.5
