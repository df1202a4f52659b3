"""Tests for StudyContext and PredictionTable."""

from dataclasses import fields

import numpy as np
import pytest

from repro.simulator import Simulator
from repro.simulator.results import ActivityCounts
from repro.studies.common import PredictionTable, StudyContext
from repro.workloads import get_profile


class TestPredictionTable:
    def make(self, ctx, count=5):
        points = ctx.exploration_points()[:count]
        return ctx.predict_points("gzip", points)

    def test_lengths_align(self, ctx):
        table = self.make(ctx)
        assert len(table) == 5
        assert table.bips.shape == (5,)
        assert table.watts.shape == (5,)

    def test_delay_consistent_with_bips(self, ctx):
        table = self.make(ctx)
        manual = table.ref_instructions / (table.bips * 1e9)
        assert table.delay == pytest.approx(manual)

    def test_efficiency_consistent(self, ctx):
        table = self.make(ctx)
        assert table.efficiency == pytest.approx(table.bips**3 / table.watts)

    def test_subset(self, ctx):
        table = self.make(ctx)
        subset = table.subset([0, 3])
        assert len(subset) == 2
        assert subset.points[1] == table.points[3]
        assert subset.bips[1] == table.bips[3]

    def test_mismatched_columns_rejected(self, ctx):
        points = ctx.exploration_points()[:3]
        with pytest.raises(ValueError):
            PredictionTable(
                benchmark="x",
                points=points,
                bips=np.ones(2),
                watts=np.ones(3),
                ref_instructions=1e9,
            )


class TestStudyContext:
    def test_exploration_points_respect_limit(self, ctx):
        points = ctx.exploration_points()
        assert len(points) == ctx.scale.exploration_limit

    def test_exploration_points_memoized(self, ctx):
        assert ctx.exploration_points() is ctx.exploration_points()

    def test_exploration_points_in_exploration_space(self, ctx):
        for point in ctx.exploration_points()[:50]:
            assert point in ctx.exploration_space

    def test_per_depth_points_balanced(self, ctx):
        points = ctx.per_depth_points()
        depths = [p["depth"] for p in points]
        from collections import Counter

        counts = Counter(depths)
        assert set(counts) == set(ctx.exploration_space.parameter("depth").values)
        assert len(set(counts.values())) == 1  # equal strata

    def test_prediction_tables_memoized(self, ctx):
        assert ctx.predict_exploration("gzip") is ctx.predict_exploration("gzip")

    def test_predictions_positive(self, ctx):
        table = ctx.predict_exploration("mcf")
        assert (table.bips > 0).all()
        assert (table.watts > 0).all()

    def test_baseline_in_exploration_space(self, ctx):
        assert ctx.baseline in ctx.exploration_space

    def test_model_accessor(self, ctx):
        assert ctx.model("gzip", "bips").spec.response == "bips"
        assert ctx.model("gzip", "watts").spec.response == "watts"

    def test_simulate_uses_scale_trace_length(self, ctx):
        result = ctx.simulate("gzip", ctx.baseline)
        assert result.instructions == ctx.scale.trace_length


class TestSimulatorFacadeMore:
    def test_simulate_many(self, ctx):
        from repro.workloads import generate_trace, get_profile

        trace = generate_trace(get_profile("gzip"), 800, seed=2)
        points = ctx.exploration_points()[:3]
        results = ctx.simulator.simulate_batch(
            ctx.exploration_space, points, trace
        )
        assert len(results) == 3
        assert all(r.bips > 0 for r in results)


class TestGroundTruthMemo:
    """``simulate``/``simulate_many`` share one (benchmark, design) memo."""

    @pytest.fixture
    def fresh(self, test_scale):
        """A context with an empty memo that counts simulated designs."""
        context = StudyContext(scale=test_scale, simulator=Simulator())
        context.batch_calls = []
        context.scalar_calls = []
        simulate_batch = context.simulator.simulate_batch
        simulate_point = context.simulator.simulate_point

        def counting_batch(space, points, trace, **kwargs):
            points = list(points)
            context.batch_calls.append(points)
            return simulate_batch(space, points, trace, **kwargs)

        def counting_point(space, point, trace, **kwargs):
            context.scalar_calls.append(point)
            return simulate_point(space, point, trace, **kwargs)

        context.simulator.simulate_batch = counting_batch
        context.simulator.simulate_point = counting_point
        return context

    @staticmethod
    def assert_same(result, reference):
        assert result.cycles == reference.cycles
        for field in fields(ActivityCounts):
            assert getattr(result.counts, field.name) == getattr(
                reference.counts, field.name
            ), field.name
        assert result.watts == reference.watts
        assert result.power_breakdown == reference.power_breakdown

    def test_mixed_hits_and_misses_in_input_order(self, fresh):
        a, b, c = (fresh.exploration_points()[i] for i in (0, 1, 2))
        fresh.simulate("gzip", b)
        points = [a, b, c, a]
        results = fresh.simulate_many("gzip", points)
        assert fresh.batch_calls == [[a, c]]
        reference = Simulator()
        trace = reference.trace_for(
            get_profile("gzip"), fresh.scale.trace_length, seed=fresh.scale.seed
        )
        assert len(results) == len(points)
        for point, result in zip(points, results):
            self.assert_same(
                result,
                reference.simulate_point(fresh.exploration_space, point, trace),
            )

    def test_duplicate_within_a_call_is_simulated_once(self, fresh):
        point = fresh.exploration_points()[3]
        first, second = fresh.simulate_many("mcf", [point, point])
        assert fresh.batch_calls == [[point]]
        assert first is second

    def test_simulate_hit_serves_simulate_many(self, fresh):
        point = fresh.exploration_points()[4]
        single = fresh.simulate("gzip", point)
        assert fresh.simulate_many("gzip", [point]) == [single]
        assert fresh.batch_calls == []
        assert fresh.scalar_calls == [point]

    def test_simulate_many_hit_serves_simulate(self, fresh):
        point = fresh.exploration_points()[5]
        (batched,) = fresh.simulate_many("gzip", [point])
        assert fresh.simulate("gzip", point) is batched
        assert fresh.scalar_calls == []
        assert len(fresh.batch_calls) == 1

    def test_repeated_call_makes_no_kernel_call(self, fresh):
        points = list(fresh.exploration_points()[:3])
        first = fresh.simulate_many("gzip", points)
        second = fresh.simulate_many("gzip", points)
        assert [r is s for r, s in zip(first, second)] == [True] * 3
        assert len(fresh.batch_calls) == 1
        assert fresh.scalar_calls == []

    def test_memo_is_per_benchmark(self, fresh):
        point = fresh.exploration_points()[6]
        gzip = fresh.simulate("gzip", point)
        mcf = fresh.simulate("mcf", point)
        assert fresh.scalar_calls == [point, point]
        assert mcf.benchmark == "mcf" and gzip.benchmark == "gzip"
