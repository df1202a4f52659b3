"""Smoke + content tests for the experiment registry."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.obs.metrics import isolated_registry
from repro.studies import StudyContext


ALL_IDS = (
    "T1", "F1", "F2", "F3", "F4", "T2", "T3", "F5a", "F5b",
    "F6", "F7", "T4", "F8", "F9a", "F9b",
    "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11", "X12",
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert tuple(EXPERIMENTS) == ALL_IDS

    def test_unknown_id(self, ctx):
        with pytest.raises(KeyError, match="choices"):
            run_experiment("F99", ctx=ctx)

    def test_runners_have_docstrings(self):
        for runner in EXPERIMENTS.values():
            assert runner.__doc__


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_every_experiment_runs(ctx, experiment_id):
    result = run_experiment(experiment_id, ctx=ctx)
    assert result.id == experiment_id
    assert result.text.strip()
    assert result.data is not None


class TestContent:
    def test_t1_reports_paper_size(self, ctx):
        result = run_experiment("T1", ctx=ctx)
        assert result.data["size"] == 375_000
        assert "375,000" in result.text

    def test_f1_medians_for_all_benchmarks(self, ctx):
        result = run_experiment("F1", ctx=ctx)
        medians = result.data["perf_medians"]
        assert set(medians) == set(ctx.benchmarks) | {"overall"}
        assert 0 < medians["overall"] < 40  # percent, loose at test scale

    def test_t2_rows_per_benchmark(self, ctx):
        result = run_experiment("T2", ctx=ctx)
        assert len(result.data["rows"]) == len(ctx.benchmarks)

    def test_f5a_line_and_boxplots(self, ctx):
        result = run_experiment("F5a", ctx=ctx)
        summary = result.data["summary"]
        assert len(summary.depths) == 7
        assert "12FO4" in result.text

    def test_f9a_average_at_k0_is_one(self, ctx):
        result = run_experiment("F9a", ctx=ctx)
        sweep = result.data["sweep"]
        assert sweep.average[0] == pytest.approx(1.0)

    def test_x1_paper_model_beats_linear(self, ctx):
        result = run_experiment("X1", ctx=ctx)
        paper = result.data["paper (splines+interactions)"]
        linear = result.data["linear only"]
        assert paper["perf"] < linear["perf"]

    def test_x2_reports_increasing_sample_sizes(self, ctx):
        result = run_experiment("X2", ctx=ctx)
        sizes = sorted(result.data)
        assert len(sizes) >= 2
        assert all(isinstance(s, int) for s in sizes)

    def test_x4_bips3w_more_invariant_than_bipsw(self, ctx):
        result = run_experiment("X4", ctx=ctx)
        spreads = result.data["spreads"]
        assert spreads["bips3_per_watt"] < spreads["bips_per_watt"]
        assert 0.0 < result.data["static_share"] < 1.0

    def test_x4_simulates_the_baseline_once(self, ctx, monkeypatch):
        calls = []
        simulate = ctx.simulate

        def counting(benchmark, designs):
            calls.append((benchmark, list(designs)))
            return simulate(benchmark, designs)

        monkeypatch.setattr(ctx, "simulate", counting)
        run_experiment("X4", ctx=ctx)
        assert calls == [("gzip", [ctx.baseline])]

    def test_x5_covers_three_samplers(self, ctx):
        result = run_experiment("X5", ctx=ctx)
        assert len(result.data) == 3
        for medians in result.data.values():
            assert all(0 < m < 50 for m in medians.values())

    @pytest.mark.parametrize("experiment_id", ["X5", "X7"])
    def test_training_sets_stay_out_of_the_memo(self, ctx, experiment_id):
        """X5's and X7's training sets are read by no other experiment, so
        they go straight to the simulator; their text is pinned by the
        golden digests."""
        before = len(ctx._simulations)
        run_experiment(experiment_id, ctx=ctx)
        assert len(ctx._simulations) == before

    def test_x6_regression_faster_than_ann(self, ctx):
        result = run_experiment("X6", ctx=ctx)
        for row in result.data.values():
            assert row["regression_fit_s"] < row["ann_fit_s"]

    def test_x7_ooo_gain_above_one(self, ctx):
        result = run_experiment("X7", ctx=ctx)
        for row in result.data.values():
            assert row["ooo_gain"] > 1.0
            assert row["r_squared"] > 0.7

    def test_x8_streaming_benchmarks_gain_most(self, ctx):
        result = run_experiment("X8", ctx=ctx)
        assert result.data["applu"]["speedup"] > result.data["gzip"]["speedup"]
        for row in result.data.values():
            assert row["speedup"] >= 1.0

    def test_x9_depth_conclusion_stable(self, ctx):
        result = run_experiment("X9", ctx=ctx)
        assert result.data["depth"].within_one_level >= 0.5


def test_validation_kernel_call_layout(test_scale, simulator):
    """F3 -> F4 -> F6 -> F7 on a fresh context: each experiment sends only
    the designs no earlier one simulated to the batch kernel, one call per
    benchmark.  F4 re-validates F3's two frontiers for free, F6 validates
    each benchmark's original line and bound designs in one call, and F7
    re-reads F6's validations without simulating."""
    fresh = StudyContext(scale=test_scale, simulator=simulator)
    fresh.models  # the campaign's kernel calls are not under test
    calls = {}
    for experiment_id in ("F3", "F4", "F6", "F7"):
        with isolated_registry() as registry:
            run_experiment(experiment_id, ctx=fresh)
            counters = registry.snapshot()["counters"]
        calls[experiment_id] = counters.get("simulator.batch.blocks", 0)
    assert calls == {"F3": 2, "F4": 7, "F6": 9, "F7": 0}


def test_one_level_table_build_per_model(test_scale, simulator, monkeypatch):
    """The context memoizes one sweep predictor per benchmark, and a
    predictor's bips and watts models share their bound terms, so each
    benchmark's level tables are built once however many studies sweep
    it: one build per benchmark, where one per model made 18 and a
    predictor built per sweep would make 126 for these experiments."""
    import repro.harness.sweep as sweep_module
    from repro.regression import SplineTerm

    fresh = StudyContext(scale=test_scale, simulator=simulator)
    binds = []
    bind = SplineTerm.bind
    monkeypatch.setattr(
        SplineTerm, "bind", lambda self, data: binds.append(self) or bind(self, data)
    )
    fresh.models
    # performance and power share their 7 spline terms: one bind each
    assert len(binds) == 7 * len(fresh.benchmarks)

    builds = []

    class CountingLayout(sweep_module.DesignLayout):
        def __init__(self, bound_terms, space):
            builds.append(bound_terms)
            super().__init__(bound_terms, space)

    monkeypatch.setattr(sweep_module, "DesignLayout", CountingLayout)
    benchmark = fresh.benchmarks[0]
    assert fresh.predictor(benchmark) is fresh.predictor(benchmark)
    for experiment_id in ("F3", "F4", "T2", "F5a", "F6", "F9a"):
        run_experiment(experiment_id, ctx=fresh)
    assert len(builds) == len(fresh.benchmarks)
