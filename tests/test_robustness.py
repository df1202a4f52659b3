"""Tests for bootstrap robustness analysis."""

from collections import Counter

import numpy as np
import pytest

from repro.designspace import DesignEncoder
from repro.harness import get_scale
from repro.studies import StudyContext, robustness


def _reference_stability(ctx, benchmark, replicates, seed):
    """The whole-matrix loop that ``optimum_stability`` replaced.

    Encodes every exploration point one by one and predicts each
    replicate over the whole matrix with ``FittedModel.predict``.
    """
    points = list(ctx.exploration_points())
    table = ctx.predict_exploration(benchmark)
    nominal = points[int(table.efficiency.argmax())]
    encoder = DesignEncoder(ctx.exploration_space)
    matrix = np.vstack([encoder.encode_point(point) for point in points])
    columns = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
    winners, efficiencies = [], []
    for models in robustness.bootstrap_models(ctx, benchmark, replicates, seed):
        bips = models.bips.predict(columns)
        watts = models.watts.predict(columns)
        efficiency = bips**3 / watts
        index = int(efficiency.argmax())
        winners.append(points[index])
        efficiencies.append(float(efficiency[index]))
    modal_point, modal_count = Counter(winners).most_common(1)[0]
    efficiencies = np.array(efficiencies)
    return robustness.OptimumStability(
        benchmark=benchmark,
        replicates=replicates,
        nominal_point=nominal,
        modal_point=modal_point,
        modal_fraction=modal_count / replicates,
        parameter_agreement={
            name: float(np.mean([w[name] == nominal[name] for w in winners]))
            for name in nominal.names
        },
        efficiency_cv=float(efficiencies.std() / efficiencies.mean()),
    )


class TestBootstrapModels:
    def test_replicate_count(self, ctx):
        models = robustness.bootstrap_models(ctx, "gzip", replicates=4, seed=1)
        assert len(models) == 4

    def test_models_differ_across_replicates(self, ctx):
        models = robustness.bootstrap_models(ctx, "gzip", replicates=2, seed=1)
        a = models[0].bips.coefficients
        b = models[1].bips.coefficients
        assert not (a == b).all()

    def test_deterministic_with_seed(self, ctx):
        a = robustness.bootstrap_models(ctx, "gzip", replicates=2, seed=9)
        b = robustness.bootstrap_models(ctx, "gzip", replicates=2, seed=9)
        assert (a[0].bips.coefficients == b[0].bips.coefficients).all()

    def test_rejects_zero_replicates(self, ctx):
        with pytest.raises(ValueError):
            robustness.bootstrap_models(ctx, "gzip", replicates=0)

    def test_models_remain_predictive(self, ctx):
        models = robustness.bootstrap_models(ctx, "gzip", replicates=3, seed=2)
        for replicate in models:
            assert replicate.bips.r_squared > 0.6
            assert replicate.watts.r_squared > 0.85


class TestOptimumStability:
    @pytest.fixture(scope="class")
    def ci_ctx(self, simulator):
        return StudyContext(
            scale=get_scale("ci"), simulator=simulator, benchmarks=["gzip", "mcf"]
        )

    @pytest.mark.parametrize("name", ["gzip", "mcf"])
    def test_matches_whole_matrix_reference_at_ci_scale(self, ci_ctx, name):
        got = robustness.optimum_stability(ci_ctx, name, replicates=5, seed=2)
        expected = _reference_stability(ci_ctx, name, replicates=5, seed=2)
        for field in (
            "benchmark", "replicates", "nominal_point", "modal_point",
            "modal_fraction", "parameter_agreement", "efficiency_cv",
        ):
            assert getattr(got, field) == getattr(expected, field), field

    def test_matches_whole_matrix_reference_at_test_scale(self, ctx):
        got = robustness.optimum_stability(ctx, "mcf", replicates=6, seed=3)
        assert got == _reference_stability(ctx, "mcf", replicates=6, seed=3)

    def test_report_fields(self, ctx):
        stability = robustness.optimum_stability(ctx, "mcf", replicates=6, seed=3)
        assert stability.replicates == 6
        assert 0.0 < stability.modal_fraction <= 1.0
        assert set(stability.parameter_agreement) == set(
            ctx.exploration_space.names
        )
        assert stability.efficiency_cv >= 0.0

    def test_agreement_fractions_bounded(self, ctx):
        stability = robustness.optimum_stability(ctx, "mcf", replicates=6, seed=3)
        for fraction in stability.parameter_agreement.values():
            assert 0.0 <= fraction <= 1.0

    def test_points_live_in_exploration_space(self, ctx):
        stability = robustness.optimum_stability(ctx, "gzip", replicates=5, seed=3)
        assert stability.nominal_point in ctx.exploration_space
        assert stability.modal_point in ctx.exploration_space

    def test_mcf_l2_choice_is_stable(self, ctx):
        """mcf's defining conclusion — it wants a big L2 — should survive
        bootstrap resampling far better than the exact design point."""
        stability = robustness.optimum_stability(ctx, "mcf", replicates=8, seed=3)
        assert stability.parameter_agreement["l2_mb"] >= 0.6


class TestDepthStability:
    def test_histogram_is_distribution(self, ctx):
        stability = robustness.depth_optimum_stability(
            ctx, replicates=6, seed=4, benchmarks=["gzip", "mcf"]
        )
        total = sum(stability.depth_histogram.values())
        assert total == pytest.approx(1.0)
        assert stability.nominal_depth in stability.depth_histogram

    def test_within_one_level_bounded(self, ctx):
        stability = robustness.depth_optimum_stability(
            ctx, replicates=6, seed=4, benchmarks=["gzip", "mcf"]
        )
        assert 0.0 <= stability.within_one_level <= 1.0

    def test_depth_optimum_reasonably_stable(self, ctx):
        """Figure 6's claim that the optimum is resolved within ~3 FO4
        implies bootstrap replicates should cluster near the nominal."""
        stability = robustness.depth_optimum_stability(
            ctx, replicates=8, seed=4, benchmarks=["gzip", "gcc", "mesa"]
        )
        assert stability.within_one_level >= 0.5
