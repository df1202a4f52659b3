"""Tests for the mechanistic interval performance model."""

import numpy as np
import pytest

from repro.baselines import IntervalModel, TraceStatistics, interval_model_for
from repro.baselines.interval import _interpolate_curve
from repro.simulator import Simulator, baseline_config
from repro.workloads import generate_trace, get_profile


@pytest.fixture(scope="module")
def gzip_model():
    trace = generate_trace(get_profile("gzip"), 4000, seed=3)
    return interval_model_for(trace), trace


class TestTraceStatistics:
    def test_fractions_sum_sensibly(self, gzip_model):
        model, trace = gzip_model
        stats = model.statistics
        assert stats.instructions == len(trace)
        total = stats.load_fraction + stats.store_fraction + stats.branch_fraction
        assert 0 < total < 1

    def test_mispredict_rate_in_unit_interval(self, gzip_model):
        model, _ = gzip_model
        assert 0 <= model.statistics.mispredict_rate <= 1

    def test_curves_monotone(self, gzip_model):
        model, _ = gzip_model
        curve = model.statistics.data_miss_curve
        values = [curve[k] for k in sorted(curve)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestInterpolation:
    CURVE = {64: 0.5, 256: 0.25, 1024: 0.05}

    def test_exact_keys(self):
        assert _interpolate_curve(self.CURVE, 256) == pytest.approx(0.25)

    def test_clamps_below_and_above(self):
        assert _interpolate_curve(self.CURVE, 1) == 0.5
        assert _interpolate_curve(self.CURVE, 10**6) == 0.05

    def test_interpolates_between(self):
        mid = _interpolate_curve(self.CURVE, 128)
        assert 0.25 < mid < 0.5


class TestPrediction:
    def test_cpi_positive(self, gzip_model):
        model, _ = gzip_model
        assert model.cycles_per_instruction(baseline_config()) > 0

    def test_bips_responds_to_depth(self, gzip_model):
        model, _ = gzip_model
        deep = model.predict_bips(baseline_config().with_overrides(depth_fo4=12.0))
        shallow = model.predict_bips(baseline_config().with_overrides(depth_fo4=30.0))
        assert deep != shallow

    def test_bigger_l2_helps_memory_bound_workload(self):
        trace = generate_trace(get_profile("mcf"), 4000, seed=3)
        model = interval_model_for(trace)
        small = model.predict_bips(baseline_config().with_overrides(l2_mb=0.25))
        large = model.predict_bips(baseline_config().with_overrides(l2_mb=4.0))
        assert large > small

    def test_tracks_simulator_for_compute_bound(self, gzip_model):
        model, trace = gzip_model
        config = baseline_config()
        predicted = model.predict_bips(config)
        (actual,) = [r.bips for r in Simulator().simulate(trace, [config])]
        assert predicted == pytest.approx(actual, rel=0.35)

    def test_rank_correlation_with_simulator(self, gzip_model):
        """Zero-training mechanism should still rank designs sensibly."""
        from repro.designspace import exploration_space, sample_uar
        from repro.regression import spearman
        from repro.simulator import config_from_point

        model, trace = gzip_model
        space = exploration_space()
        simulator = Simulator()
        configs = [
            config_from_point(space, point)
            for point in sample_uar(space, 20, seed=5)
        ]
        predicted = [model.predict_bips(config) for config in configs]
        actual = [r.bips for r in simulator.simulate(trace, configs)]
        assert spearman(np.array(predicted), np.array(actual)) > 0.6
