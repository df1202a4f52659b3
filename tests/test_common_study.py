"""Tests for StudyContext and PredictionTable."""

from dataclasses import fields

import numpy as np
import pytest

from repro.simulator import Simulator, config_from_point
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
        (result,) = ctx.simulate("gzip", [ctx.baseline])
        assert result.instructions == ctx.scale.trace_length


class TestSimulatorFacadeMore:
    def test_simulate_block(self, ctx):
        from repro.workloads import generate_trace, get_profile

        trace = generate_trace(get_profile("gzip"), 800, seed=2)
        configs = [
            config_from_point(ctx.exploration_space, point)
            for point in ctx.exploration_points()[:3]
        ]
        results = ctx.simulator.simulate(trace, configs)
        assert len(results) == 3
        assert all(r.bips > 0 for r in results)


class TestGroundTruthMemo:
    """``StudyContext.simulate`` memoizes per (benchmark, MachineConfig)."""

    @pytest.fixture
    def fresh(self, test_scale):
        """A context with an empty memo that records each simulator call."""
        context = StudyContext(scale=test_scale, simulator=Simulator())
        context.calls = []
        simulate = context.simulator.simulate

        def counting(trace, configs):
            configs = list(configs)
            context.calls.append(configs)
            return simulate(trace, configs)

        context.simulator.simulate = counting
        return context

    @staticmethod
    def config(context, point):
        return config_from_point(context.exploration_space, point)

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
        fresh.simulate("gzip", [b])
        points = [a, b, c, a]
        results = fresh.simulate("gzip", points)
        assert fresh.calls == [
            [self.config(fresh, b)],
            [self.config(fresh, a), self.config(fresh, c)],
        ]
        reference = Simulator()
        trace = reference.trace_for(
            get_profile("gzip"), fresh.scale.trace_length, seed=fresh.scale.seed
        )
        assert len(results) == len(points)
        for point, result in zip(points, results):
            (want,) = reference.simulate(trace, [self.config(fresh, point)])
            self.assert_same(result, want)

    def test_duplicate_within_a_call_is_simulated_once(self, fresh):
        point = fresh.exploration_points()[3]
        first, second = fresh.simulate("mcf", [point, point])
        assert fresh.calls == [[self.config(fresh, point)]]
        assert first is second

    def test_point_request_serves_config_request(self, fresh):
        point = fresh.exploration_points()[4]
        (by_point,) = fresh.simulate("gzip", [point])
        (by_config,) = fresh.simulate("gzip", [self.config(fresh, point)])
        assert by_config is by_point
        assert len(fresh.calls) == 1

    def test_config_request_serves_point_request(self, fresh):
        point = fresh.exploration_points()[5]
        (by_config,) = fresh.simulate("gzip", [self.config(fresh, point)])
        (by_point,) = fresh.simulate("gzip", [point])
        assert by_point is by_config
        assert len(fresh.calls) == 1

    def test_repeated_call_makes_no_kernel_call(self, fresh):
        points = list(fresh.exploration_points()[:3])
        first = fresh.simulate("gzip", points)
        second = fresh.simulate("gzip", points)
        assert [r is s for r, s in zip(first, second)] == [True] * 3
        assert len(fresh.calls) == 1

    def test_memo_is_per_benchmark(self, fresh):
        point = fresh.exploration_points()[6]
        (gzip,) = fresh.simulate("gzip", [point])
        (mcf,) = fresh.simulate("mcf", [point])
        assert len(fresh.calls) == 2
        assert mcf.benchmark == "mcf" and gzip.benchmark == "gzip"

    def test_rerun_of_configs_outside_the_exploration_space_hits(self, fresh):
        """X8's prefetch configs share the memo: a second run makes no
        simulator call.  X5 (sampling space) and X7 (extended space) keep
        their training sets out of the memo, since no other experiment
        reads them: each run simulates them again, to the same text."""
        from repro.experiments import run_experiment

        for experiment_id in ("X5", "X7", "X8"):
            first = run_experiment(experiment_id, ctx=fresh)
            fresh.calls.clear()
            second = run_experiment(experiment_id, ctx=fresh)
            if experiment_id == "X8":
                assert fresh.calls == [], experiment_id
            else:
                assert fresh.calls, experiment_id
            assert second.text == first.text
