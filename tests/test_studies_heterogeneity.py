"""Tests for the heterogeneity study (Section 6)."""

import numpy as np
import pytest

from repro.studies import heterogeneity


class TestBenchmarkOptima:
    def test_keys_are_suite(self, ctx):
        optima = heterogeneity.benchmark_optima(ctx)
        assert set(optima) == set(ctx.benchmarks)

    def test_memoized_on_context(self, ctx):
        a = heterogeneity.benchmark_optima(ctx)
        b = heterogeneity.benchmark_optima(ctx)
        assert a is b


class TestClustering:
    def test_k4_produces_at_most_4_clusters(self, ctx):
        clustering = heterogeneity.cluster_architectures(ctx, 4)
        assert 1 <= clustering.k <= 4

    def test_every_benchmark_assigned(self, ctx):
        clustering = heterogeneity.cluster_architectures(ctx, 3)
        assert set(clustering.assignment) == set(ctx.benchmarks)
        for benchmark, index in clustering.assignment.items():
            assert benchmark in clustering.clusters[index].benchmarks

    def test_compromise_points_on_grid(self, ctx):
        clustering = heterogeneity.cluster_architectures(ctx, 4)
        for cluster in clustering.clusters:
            assert cluster.point in ctx.exploration_space

    def test_k_equals_n_reproduces_optima(self, ctx):
        optima = heterogeneity.benchmark_optima(ctx)
        clustering = heterogeneity.cluster_architectures(ctx, len(optima))
        # benchmarks with identical optima may legitimately share a
        # cluster; every member's own optimum must equal its cluster's
        # compromise architecture
        for cluster in clustering.clusters:
            for name in cluster.benchmarks:
                assert cluster.point == optima[name].point

    def test_singleton_clustering(self, ctx):
        clustering = heterogeneity.cluster_architectures(ctx, 1)
        assert clustering.k == 1
        assert len(clustering.clusters[0].benchmarks) == len(ctx.benchmarks)


class TestTable4:
    def test_annotated_metrics(self, ctx):
        clustering = heterogeneity.table4(ctx, k=4)
        for cluster in clustering.clusters:
            assert np.isfinite(cluster.mean_delay)
            assert np.isfinite(cluster.mean_power)
            assert cluster.mean_power > 0


class TestKSweep:
    def test_counts_and_shapes(self, ctx):
        sweep = heterogeneity.k_sweep(ctx, max_k=4)
        assert sweep.cluster_counts == [0, 1, 2, 3, 4]
        assert len(sweep.average) == 5
        for gains in sweep.per_benchmark.values():
            assert len(gains) == 5

    def test_k0_is_baseline_unity(self, ctx):
        sweep = heterogeneity.k_sweep(ctx, max_k=2)
        assert sweep.average[0] == pytest.approx(1.0)

    def test_full_heterogeneity_is_upper_bound_per_benchmark(self, ctx):
        sweep = heterogeneity.k_sweep(ctx)
        max_k = sweep.cluster_counts[-1]
        for benchmark, gains in sweep.per_benchmark.items():
            # at K=9 every benchmark runs its own predicted optimum: no
            # smaller K's compromise can beat it (modulo grid snapping)
            assert gains[-1] >= max(gains) - 0.15

    def test_average_gain_grows_with_heterogeneity(self, ctx):
        sweep = heterogeneity.k_sweep(ctx)
        assert sweep.average[-1] >= sweep.average[1] - 1e-9

    def test_simulated_sweep(self, ctx):
        sweep = heterogeneity.k_sweep(ctx, max_k=2, simulate=True)
        assert sweep.simulated
        assert all(g > 0 for g in sweep.average)


class TestDelayPowerMap:
    def test_map_covers_suite(self, ctx):
        mapping = heterogeneity.delay_power_map(ctx)
        assert set(mapping.optima) == set(ctx.benchmarks)
        assert len(mapping.compromises) >= 1
        for delay, power in mapping.optima.values():
            assert delay > 0 and power > 0
