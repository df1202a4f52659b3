"""Tests for the pipeline depth study (Section 5)."""

import numpy as np
import pytest

from repro.studies import depth


class TestOriginalAnalysis:
    def test_sweep_covers_exploration_depths(self, ctx):
        analysis = depth.original_analysis(ctx, "gzip")
        assert analysis.depths == [12, 15, 18, 21, 24, 27, 30]
        assert analysis.efficiency.shape == (7,)

    def test_non_depth_parameters_pinned_at_baseline(self, ctx):
        analysis = depth.original_analysis(ctx, "gzip")
        baseline = ctx.baseline
        for point in analysis.points:
            for name in point.names:
                if name != "depth":
                    assert point[name] == baseline[name]

    def test_relative_peaks_at_one(self, ctx):
        analysis = depth.original_analysis(ctx, "ammp")
        relative = analysis.relative()
        assert relative.max() == pytest.approx(1.0)


class TestEnhancedAnalysis:
    def test_distributions_per_depth(self, ctx):
        analysis = depth.enhanced_analysis(ctx, "mcf")
        assert set(analysis.distributions) == set(analysis.depths)
        for stats in analysis.distributions.values():
            assert stats.n > 0

    def test_bound_points_live_at_their_depth(self, ctx):
        analysis = depth.enhanced_analysis(ctx, "mcf")
        for d, point in analysis.bound_points.items():
            assert point["depth"] == d

    def test_bound_efficiency_is_distribution_max(self, ctx):
        analysis = depth.enhanced_analysis(ctx, "gzip")
        for d, stats in analysis.distributions.items():
            bound = analysis.bound_efficiency[d]
            assert bound >= stats.whisker_high - 1e-12

    def test_exceed_fraction_in_unit_interval(self, ctx):
        analysis = depth.enhanced_analysis(ctx, "ammp")
        for fraction in analysis.exceed_baseline_fraction.values():
            assert 0.0 <= fraction <= 1.0


class TestSuiteSummary:
    def test_shapes(self, ctx):
        summary = depth.suite_depth_summary(ctx)
        assert len(summary.original_relative) == len(summary.depths)
        assert set(summary.distributions) == set(summary.depths)
        assert set(summary.per_benchmark) == set(ctx.benchmarks)

    def test_original_line_normalized(self, ctx):
        summary = depth.suite_depth_summary(ctx)
        assert summary.original_relative.max() <= 1.0 + 1e-9

    def test_enhanced_bound_exceeds_original_line(self, ctx):
        # the whole-space max should beat the constrained line somewhere
        summary = depth.suite_depth_summary(ctx)
        best_bound = max(summary.bound_relative.values())
        assert best_bound > max(summary.original_relative) - 0.05


class TestCacheDistribution:
    def test_fractions_sum_to_one(self, ctx):
        distribution = depth.top_percentile_cache_distribution(ctx)
        for d, shares in distribution.items():
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_sizes_are_space_levels(self, ctx):
        distribution = depth.top_percentile_cache_distribution(ctx)
        sizes = set(ctx.exploration_space.parameter("dl1_kb").values)
        for shares in distribution.values():
            assert set(shares) == sizes


class TestValidation:
    def test_validation_shapes(self, ctx):
        validation = depth.validate_depth_study(ctx, benchmarks=["gzip", "mcf"])
        n = len(validation.depths)
        assert validation.predicted_original.shape == (n,)
        assert validation.simulated_original.shape == (n,)
        assert validation.predicted_enhanced.shape == (n,)
        assert validation.simulated_enhanced.shape == (n,)

    def test_simulated_relative_peaks_at_one(self, ctx):
        validation = depth.validate_depth_study(ctx, benchmarks=["gzip"])
        assert validation.simulated_original.max() == pytest.approx(1.0)

    def test_decomposition_positive(self, ctx):
        validation = depth.validate_depth_study(ctx, benchmarks=["gzip"])
        for analysis in ("original", "enhanced"):
            assert (validation.predicted_bips[analysis] > 0).all()
            assert (validation.simulated_watts[analysis] > 0).all()

    def test_predicted_and_simulated_correlate(self, ctx):
        # high-level trend agreement (Figure 6's claim), loose at test scale
        validation = depth.validate_depth_study(ctx, benchmarks=["gzip", "gcc"])
        correlation = np.corrcoef(
            validation.predicted_original, validation.simulated_original
        )[0, 1]
        assert correlation > 0.5
