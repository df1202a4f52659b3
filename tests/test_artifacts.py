"""Tests for campaign persistence and caching: one file per benchmark."""

import json

import numpy as np
import pytest

from repro.harness import (
    ArtifactError,
    ChunkFailure,
    cached_campaign,
    get_scale,
    load_campaign,
    run_campaign,
    save_campaign,
)
from repro.harness.artifacts import (
    CACHE_VERSION,
    _artifact_path,
    _campaign_key,
    cache_dir,
)
from repro.harness import campaign as campaign_module
from repro.harness.campaign import _new_campaign
from repro.designspace import exploration_space, sampling_space
from repro.simulator import Simulator


@pytest.fixture(scope="module")
def tiny_scale():
    return get_scale("ci").with_overrides(
        name="artifact-test", trace_length=600, n_train=12, n_validation=4
    )


@pytest.fixture(scope="module")
def campaign(tiny_scale):
    return run_campaign(Simulator(), scale=tiny_scale, benchmarks=["gzip"])


@pytest.fixture
def own_cache(tmp_path, monkeypatch):
    """A cache directory private to one test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _empty_like(campaign):
    """The same campaign description with no benchmark assembled."""
    return _new_campaign(campaign.scale, campaign.space, campaign.benchmarks)


def _assert_bitwise_equal(got, want, benchmarks):
    for bench in benchmarks:
        for split in ("train", "validation"):
            ours = got.dataset(bench, split).metrics
            theirs = want.dataset(bench, split).metrics
            assert np.array_equal(ours["bips"], theirs["bips"])
            assert np.array_equal(ours["watts"], theirs["watts"])


class TestRoundTrip:
    def test_save_load_equality(self, campaign, own_cache):
        save_campaign(campaign, "gzip")
        loaded = _empty_like(campaign)
        load_campaign(loaded, "gzip")
        assert loaded.train_points == campaign.train_points
        assert loaded.validation_points == campaign.validation_points
        _assert_bitwise_equal(loaded, campaign, ["gzip"])

    def test_load_rejects_corrupt_file(self, campaign, own_cache):
        path = _artifact_path(campaign, "gzip")
        path.write_text("{ not json")
        with pytest.raises(ArtifactError):
            load_campaign(_empty_like(campaign), "gzip")

    def test_load_rejects_version_mismatch(self, campaign, own_cache):
        save_campaign(campaign, "gzip")
        path = _artifact_path(campaign, "gzip")
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_VERSION - 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="version"):
            load_campaign(_empty_like(campaign), "gzip")

    def test_load_missing_file(self, campaign, own_cache):
        with pytest.raises(ArtifactError):
            load_campaign(_empty_like(campaign), "gzip")


class TestKeying:
    def test_key_stable(self, tiny_scale):
        space = sampling_space()
        a = _campaign_key(tiny_scale, space, "gzip")
        b = _campaign_key(tiny_scale, space, "gzip")
        assert a == b

    def test_key_changes_with_scale(self, tiny_scale):
        space = sampling_space()
        other = tiny_scale.with_overrides(n_train=13)
        assert _campaign_key(tiny_scale, space, "gzip") != _campaign_key(
            other, space, "gzip"
        )

    def test_key_changes_with_benchmarks(self, tiny_scale):
        space = sampling_space()
        assert _campaign_key(tiny_scale, space, "gzip") != _campaign_key(
            tiny_scale, space, "mcf"
        )

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"trace_length": 601}, id="trace_length"),
            pytest.param({"n_train": 13}, id="n_train"),
            pytest.param({"n_validation": 5}, id="n_validation"),
            pytest.param({"seed": 8}, id="seed"),
            pytest.param({"space": exploration_space()}, id="space"),
            pytest.param(
                {"benchmarks": ("gzip", "mcf", "mesa")}, id="benchmark-added"
            ),
            pytest.param({"benchmarks": ("mcf", "mesa")}, id="benchmark-swapped"),
        ],
    )
    def test_description_change_moves_key_and_fingerprint(
        self, tiny_scale, change
    ):
        """Each benchmark's file name digests the campaign description
        without the benchmark list: a change to the scale or the space
        moves it, a change to the benchmark list leaves every shared
        benchmark's file where it was."""
        change = dict(change)
        list_changed = "benchmarks" in change
        space = change.pop("space", sampling_space())
        names = change.pop("benchmarks", ("gzip", "mcf"))
        base = _new_campaign(tiny_scale, sampling_space(), ("gzip", "mcf"))
        other = _new_campaign(tiny_scale.with_overrides(**change), space, names)
        shared = [name for name in names if name in base.benchmarks]
        assert shared
        for name in shared:
            same = _artifact_path(base, name) == _artifact_path(other, name)
            assert same == list_changed

class RecordingSimulator(Simulator):
    """Records the benchmark of every trace it builds, i.e. simulates."""

    def __init__(self):
        super().__init__()
        self.simulated = []

    def trace_for(self, profile, *args, **kwargs):
        self.simulated.append(profile.name)
        return super().trace_for(profile, *args, **kwargs)


class TestCachedCampaign:
    def test_second_call_skips_simulation(self, tiny_scale):
        scale = tiny_scale.with_overrides(name="cache-test", n_train=10)

        first = cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        # a simulator that would explode if actually used
        class ExplodingSimulator(Simulator):
            def simulate(self, *args, **kwargs):
                raise AssertionError("cache miss: simulation re-ran")

        second = cached_campaign(
            ExplodingSimulator(), scale=scale, benchmarks=["gzip"]
        )
        assert second.train_points == first.train_points
        _assert_bitwise_equal(second, first, ["gzip"])
        assert second.run_report.total_chunks == 0

    def test_subset_and_superset_reuse_shared_benchmarks(self, tiny_scale):
        scale = tiny_scale.with_overrides(name="reuse-test", n_train=6)
        fresh = run_campaign(
            Simulator(), scale=scale, benchmarks=["gzip", "mcf", "mesa"]
        )
        simulator = RecordingSimulator()
        first = cached_campaign(simulator, scale=scale, benchmarks=["gzip", "mcf"])
        assert simulator.simulated == ["gzip", "mcf"]

        simulator = RecordingSimulator()
        subset = cached_campaign(simulator, scale=scale, benchmarks=["mcf"])
        assert simulator.simulated == []

        simulator = RecordingSimulator()
        superset = cached_campaign(
            simulator, scale=scale, benchmarks=["gzip", "mcf", "mesa"]
        )
        assert simulator.simulated == ["mesa"]
        assert superset.run_report.total_chunks == 1

        _assert_bitwise_equal(first, fresh, ["gzip", "mcf"])
        _assert_bitwise_equal(subset, fresh, ["mcf"])
        _assert_bitwise_equal(superset, fresh, ["gzip", "mcf", "mesa"])

    def test_cache_file_created(self, tiny_scale):
        scale = tiny_scale.with_overrides(name="file-test", n_train=6)
        cached_campaign(Simulator(), scale=scale, benchmarks=["gzip", "mcf"])
        assert len(list(cache_dir().glob("campaign-file-test-gzip-*.json"))) == 1
        assert len(list(cache_dir().glob("campaign-file-test-mcf-*.json"))) == 1

    def test_corrupt_cache_regenerates(self, tiny_scale):
        scale = tiny_scale.with_overrides(name="corrupt-test", n_train=6)
        cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        for path in cache_dir().glob("campaign-corrupt-test-*.json"):
            path.write_text("garbage")
        campaign = cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        assert len(campaign.train_points) == 6

    def test_corrupt_cache_quarantined_with_warning(self, tiny_scale, caplog):
        scale = tiny_scale.with_overrides(name="quarantine-test", n_train=6)
        benchmarks = ["gzip", "mcf", "mesa"]
        fresh = cached_campaign(Simulator(), scale=scale, benchmarks=benchmarks)
        path = _artifact_path(fresh, "mcf")
        original = path.read_text()
        path.write_text(original[: len(original) // 2])  # truncated write

        simulator = RecordingSimulator()
        with caplog.at_level("WARNING"):
            campaign = cached_campaign(
                simulator, scale=scale, benchmarks=benchmarks
            )
        # only the bad benchmark is simulated again
        assert simulator.simulated == ["mcf"]
        assert campaign.run_report.total_chunks == 1
        _assert_bitwise_equal(campaign, fresh, benchmarks)
        quarantined = list(
            cache_dir().glob("campaign-quarantine-test-*.json.corrupt")
        )
        assert [q.name for q in quarantined] == [path.name + ".corrupt"]
        assert any("quarantined" in r.message for r in caplog.records)
        # the regenerated artifact is valid again
        assert path.read_text() == original
        load_campaign(_empty_like(campaign), "mcf")


    def test_failed_run_keeps_finished_benchmarks(self, tiny_scale, monkeypatch):
        """Each benchmark's file is written as its chunk completes, so a
        run that fails later has already persisted the earlier ones; a
        payload that fails validation writes no file."""
        scale = tiny_scale.with_overrides(name="abort-test", n_train=6)
        benchmarks = ["gzip", "mcf", "mesa"]
        real = campaign_module._simulate_chunk

        def truncated_on_mcf(simulator, benchmark, *args):
            pairs = real(simulator, benchmark, *args)
            return pairs[:-1] if benchmark == "mcf" else pairs

        monkeypatch.setattr(campaign_module, "_simulate_chunk", truncated_on_mcf)
        with pytest.raises(ChunkFailure, match="CorruptResultError"):
            cached_campaign(Simulator(), scale=scale, benchmarks=benchmarks)
        written = _new_campaign(scale, sampling_space(), benchmarks)
        assert _artifact_path(written, "gzip").exists()
        assert not _artifact_path(written, "mcf").exists()
        assert not _artifact_path(written, "mesa").exists()


class TestMalformedPayloads:
    def _write(self, mutate, campaign):
        save_campaign(campaign, "gzip")
        path = _artifact_path(campaign, "gzip")
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))

    def _load(self, campaign):
        load_campaign(_empty_like(campaign), "gzip")

    def test_missing_benchmark_key(self, campaign, own_cache):
        self._write(lambda p: p.pop("benchmark"), campaign)
        with pytest.raises(ArtifactError, match="'benchmark'"):
            self._load(campaign)

    def test_missing_metrics_key(self, campaign, own_cache):
        self._write(lambda p: p.pop("watts"), campaign)
        with pytest.raises(ArtifactError, match="missing key 'watts'"):
            self._load(campaign)

    def test_wrong_benchmark_name(self, campaign, own_cache):
        def mutate(p):
            p["benchmark"] = "mcf"

        self._write(mutate, campaign)
        with pytest.raises(ArtifactError, match="gzip"):
            self._load(campaign)

    def test_metrics_wrong_type(self, campaign, own_cache):
        # a scalar where the column should be
        def mutate(p):
            p["bips"] = 42

        self._write(mutate, campaign)
        with pytest.raises(ArtifactError, match="malformed"):
            self._load(campaign)

    def test_non_numeric_metric_column(self, campaign, own_cache):
        def mutate(p):
            p["bips"] = ["not", "numbers"]

        self._write(mutate, campaign)
        with pytest.raises(ArtifactError, match="bips"):
            self._load(campaign)

    def test_truncated_metric_column(self, campaign, own_cache):
        def mutate(p):
            p["watts"] = p["watts"][:-1]

        self._write(mutate, campaign)
        with pytest.raises(ArtifactError, match="watts"):
            self._load(campaign)

    def test_non_object_payload(self, campaign, own_cache):
        _artifact_path(campaign, "gzip").write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ArtifactError, match="JSON object"):
            self._load(campaign)


class TestCrashSafeSave:
    def test_interrupted_save_preserves_existing_artifact(
        self, campaign, own_cache, monkeypatch
    ):
        save_campaign(campaign, "gzip")
        path = _artifact_path(campaign, "gzip")
        good = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.harness.artifacts.os.replace", exploding_replace
            )
            with pytest.raises(OSError):
                save_campaign(campaign, "gzip")

        # the existing artifact is untouched and no temp litter remains
        assert path.read_text() == good
        assert list(own_cache.glob("*.tmp")) == []
        load_campaign(_empty_like(campaign), "gzip")
