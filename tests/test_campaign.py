"""Tests for simulation campaigns and model fitting."""

import numpy as np
import pytest

from repro.harness import fit_campaign_models, get_scale, run_campaign
from repro.simulator import Simulator
from repro.workloads import get_profile


@pytest.fixture(scope="module")
def mini_campaign():
    scale = get_scale("ci").with_overrides(
        name="mini", trace_length=800, n_train=50, n_validation=8
    )
    return run_campaign(Simulator(), scale=scale, benchmarks=["gzip", "mcf"])


class TestCampaignShape:
    def test_point_counts(self, mini_campaign):
        assert len(mini_campaign.train_points) == 50
        assert len(mini_campaign.validation_points) == 8

    def test_train_and_validation_disjoint(self, mini_campaign):
        assert not set(mini_campaign.train_points) & set(
            mini_campaign.validation_points
        )

    def test_datasets_per_benchmark(self, mini_campaign):
        assert set(mini_campaign.train) == {"gzip", "mcf"}
        assert set(mini_campaign.validation) == {"gzip", "mcf"}

    def test_all_benchmarks_share_points(self, mini_campaign):
        # the paper simulates every sampled design on every benchmark
        assert (
            mini_campaign.train["gzip"].points is mini_campaign.train_points
            or mini_campaign.train["gzip"].points == mini_campaign.train_points
        )
        assert mini_campaign.train["gzip"].points == mini_campaign.train["mcf"].points

    def test_dataset_accessor(self, mini_campaign):
        assert mini_campaign.dataset("gzip").benchmark == "gzip"
        assert mini_campaign.dataset("gzip", "validation").benchmark == "gzip"
        with pytest.raises(KeyError):
            mini_campaign.dataset("ammp")

    def test_dataset_rejects_unknown_split(self, mini_campaign):
        # "test" used to silently fall through to the validation table
        with pytest.raises(ValueError):
            mini_campaign.dataset("gzip", "test")
        with pytest.raises(ValueError):
            mini_campaign.dataset("gzip", "Validation")

    def test_metrics_positive(self, mini_campaign):
        for split in ("train", "validation"):
            for bench in ("gzip", "mcf"):
                dataset = mini_campaign.dataset(bench, split)
                assert (dataset.metrics["bips"] > 0).all()
                assert (dataset.metrics["watts"] > 0).all()

    def test_sampling_deterministic_at_same_scale(self, mini_campaign):
        scale = mini_campaign.scale
        again = run_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        assert again.train_points == mini_campaign.train_points


class TestSeedSensitivity:
    def test_different_seed_similar_accuracy(self, mini_campaign):
        """Model quality should be a property of the protocol, not the
        particular random sample: an independent draw trains models of
        comparable fit."""
        other_scale = mini_campaign.scale.with_overrides(seed=99)
        other = run_campaign(Simulator(), scale=other_scale, benchmarks=["gzip"])
        a = fit_campaign_models(mini_campaign)["gzip"]["bips"].r_squared
        b = fit_campaign_models(other)["gzip"]["bips"].r_squared
        assert abs(a - b) < 0.2
        assert other.train_points != mini_campaign.train_points


class TestBenchmarkSubsets:
    def test_context_with_two_benchmarks(self, test_scale, simulator, tmp_path,
                                         monkeypatch):
        from repro.studies import StudyContext, heterogeneity

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scale = test_scale.with_overrides(name="duo", n_train=60, n_validation=10)
        ctx = StudyContext(scale=scale, simulator=simulator,
                           benchmarks=["gzip", "mcf"])
        optima = heterogeneity.benchmark_optima(ctx)
        assert set(optima) == {"gzip", "mcf"}
        sweep = heterogeneity.k_sweep(ctx)
        assert sweep.cluster_counts[-1] == 2


class TestModelFitting:
    def test_fit_campaign_models_structure(self, mini_campaign):
        models = fit_campaign_models(mini_campaign)
        assert set(models) == {"gzip", "mcf"}
        assert set(models["gzip"]) == {"bips", "watts"}

    def test_models_explain_training_data(self, mini_campaign):
        models = fit_campaign_models(mini_campaign)
        for bench in ("gzip", "mcf"):
            assert models[bench]["bips"].r_squared > 0.7
            assert models[bench]["watts"].r_squared > 0.9

    def test_serial_matches_scalar_per_point_loop(self, mini_campaign):
        """The batch-kernel campaign equals an independent per-point
        scalar simulation of the same designs, bit for bit."""
        simulator = Simulator()
        scale = mini_campaign.scale
        for bench in ("gzip", "mcf"):
            trace = simulator.trace_for(
                get_profile(bench), scale.trace_length, seed=scale.seed
            )
            for split in ("train", "validation"):
                dataset = mini_campaign.dataset(bench, split)
                results = [
                    simulator.simulate_point(mini_campaign.space, point, trace)
                    for point in dataset.points
                ]
                assert np.array_equal(
                    dataset.metrics["bips"], np.array([r.bips for r in results])
                )
                assert np.array_equal(
                    dataset.metrics["watts"],
                    np.array([r.watts for r in results]),
                )

    def test_parallel_matches_serial(self, mini_campaign):
        """Workers rebuild deterministic traces: results are bit-identical."""
        parallel = run_campaign(
            Simulator(),
            scale=mini_campaign.scale,
            benchmarks=["gzip", "mcf"],
            workers=2,
        )
        for bench in ("gzip", "mcf"):
            for split in ("train", "validation"):
                serial_metrics = mini_campaign.dataset(bench, split).metrics
                parallel_metrics = parallel.dataset(bench, split).metrics
                assert np.array_equal(
                    serial_metrics["bips"], parallel_metrics["bips"]
                )
                assert np.array_equal(
                    serial_metrics["watts"], parallel_metrics["watts"]
                )
