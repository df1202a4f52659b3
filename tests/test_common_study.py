"""Tests for StudyContext and PredictionTable."""

import numpy as np
import pytest

from repro.studies.common import PredictionTable, StudyContext


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
