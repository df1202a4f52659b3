"""Tests for CMP scheduling and the Hungarian solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.studies import scheduling
from repro.studies.scheduling import SchedulingError, hungarian


def brute_force(cost: np.ndarray) -> float:
    n = cost.shape[0]
    return min(
        sum(cost[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


class TestHungarian:
    def test_identity_case(self):
        cost = np.array([[1.0, 9.0], [9.0, 1.0]])
        pairs = dict(hungarian(cost))
        assert pairs == {0: 0, 1: 1}

    def test_crossed_case(self):
        cost = np.array([[9.0, 1.0], [1.0, 9.0]])
        pairs = dict(hungarian(cost))
        assert pairs == {0: 1, 1: 0}

    def test_assignment_is_permutation(self):
        rng = np.random.default_rng(0)
        cost = rng.random((6, 6))
        pairs = hungarian(cost)
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        assert sorted(rows) == list(range(6))
        assert sorted(cols) == list(range(6))

    def test_rejects_non_square(self):
        with pytest.raises(SchedulingError):
            hungarian(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        cost = np.array([[1.0, np.inf], [1.0, 1.0]])
        with pytest.raises(SchedulingError):
            hungarian(cost)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_matches_brute_force(self, n, seed):
        cost = np.random.default_rng(seed).uniform(0, 100, (n, n))
        pairs = hungarian(cost)
        total = sum(cost[r, c] for r, c in pairs)
        assert total == pytest.approx(brute_force(cost), rel=1e-9)


class TestSchedule:
    def cores_for(self, ctx, count):
        points = ctx.exploration_points()
        return points[:count]

    def test_one_benchmark_per_core(self, ctx):
        benchmarks = list(ctx.benchmarks)[:4]
        result = scheduling.schedule(
            ctx, self.cores_for(ctx, 4), benchmarks, policy="optimal"
        )
        assert sorted(result.assignment.values()) == [0, 1, 2, 3]
        assert set(result.assignment) == set(benchmarks)

    def test_optimal_at_least_as_good_as_naive(self, ctx):
        benchmarks = list(ctx.benchmarks)[:5]
        cores = self.cores_for(ctx, 5)
        optimal = scheduling.schedule(ctx, cores, benchmarks, policy="optimal")
        naive = scheduling.schedule(ctx, cores, benchmarks, policy="naive")
        assert optimal.total_log_efficiency >= naive.total_log_efficiency - 1e-9

    def test_mismatched_counts_rejected(self, ctx):
        with pytest.raises(SchedulingError):
            scheduling.schedule(ctx, self.cores_for(ctx, 3), ["gzip"], policy="naive")

    def test_unknown_policy_rejected(self, ctx):
        with pytest.raises(SchedulingError):
            scheduling.schedule(
                ctx, self.cores_for(ctx, 1), ["gzip"], policy="random"
            )

    def test_geomean_positive(self, ctx):
        result = scheduling.schedule(
            ctx, self.cores_for(ctx, 2), ["gzip", "mcf"], policy="optimal"
        )
        assert result.geomean_efficiency > 0
        assert result.total_power > 0


class TestCMPComparison:
    def test_heterogeneous_cmp_beats_or_ties_homogeneous(self, ctx):
        comparison = scheduling.compare_cmp_designs(ctx, core_types=4)
        assert comparison.heterogeneity_gain >= 0.95  # allow snap noise

    def test_optimal_scheduling_beats_or_ties_naive(self, ctx):
        comparison = scheduling.compare_cmp_designs(ctx, core_types=4)
        assert comparison.scheduling_gain >= 1.0 - 1e-9

    def test_core_counts_match_suite(self, ctx):
        comparison = scheduling.compare_cmp_designs(ctx, core_types=3)
        assert len(comparison.heterogeneous.cores) == len(ctx.benchmarks)
        assert len(comparison.homogeneous.cores) == len(ctx.benchmarks)
