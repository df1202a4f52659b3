"""Tests for campaign persistence and caching."""

import json

import numpy as np
import pytest

from repro.harness import (
    ArtifactError,
    cached_campaign,
    get_scale,
    load_campaign,
    run_campaign,
    save_campaign,
)
from repro.harness.artifacts import CACHE_VERSION, _campaign_key, cache_dir
from repro.harness.campaign import _campaign_fingerprint
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


class TestRoundTrip:
    def test_save_load_equality(self, campaign, tiny_scale, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        loaded = load_campaign(path, campaign.space, tiny_scale)
        assert loaded.train_points == campaign.train_points
        assert loaded.validation_points == campaign.validation_points
        for split in ("train", "validation"):
            original = getattr(campaign, split)["gzip"].metrics
            restored = getattr(loaded, split)["gzip"].metrics
            assert np.allclose(original["bips"], restored["bips"])
            assert np.allclose(original["watts"], restored["watts"])

    def test_load_rejects_corrupt_file(self, campaign, tiny_scale, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ArtifactError):
            load_campaign(path, campaign.space, tiny_scale)

    def test_load_rejects_version_mismatch(self, campaign, tiny_scale, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_VERSION - 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="version"):
            load_campaign(path, campaign.space, tiny_scale)

    def test_load_missing_file(self, campaign, tiny_scale, tmp_path):
        with pytest.raises(ArtifactError):
            load_campaign(tmp_path / "absent.json", campaign.space, tiny_scale)


class TestKeying:
    def test_key_stable(self, tiny_scale):
        space = sampling_space()
        a = _campaign_key(tiny_scale, space, ("gzip",))
        b = _campaign_key(tiny_scale, space, ("gzip",))
        assert a == b

    def test_key_changes_with_scale(self, tiny_scale):
        space = sampling_space()
        other = tiny_scale.with_overrides(n_train=13)
        assert _campaign_key(tiny_scale, space, ("gzip",)) != _campaign_key(
            other, space, ("gzip",)
        )

    def test_key_changes_with_benchmarks(self, tiny_scale):
        space = sampling_space()
        assert _campaign_key(tiny_scale, space, ("gzip",)) != _campaign_key(
            tiny_scale, space, ("gzip", "mcf")
        )

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"trace_length": 601}, id="trace_length"),
            pytest.param({"n_train": 13}, id="n_train"),
            pytest.param({"n_validation": 5}, id="n_validation"),
            pytest.param({"seed": 8}, id="seed"),
            pytest.param({"space": exploration_space()}, id="space"),
            pytest.param({"benchmarks": ("gzip", "mcf")}, id="benchmark-added"),
            pytest.param({"benchmarks": ("mcf",)}, id="benchmark-swapped"),
        ],
    )
    def test_description_change_moves_key_and_fingerprint(
        self, tiny_scale, change
    ):
        """The artifact key and the journal fingerprint digest one campaign
        description: any change to it moves both."""
        change = dict(change)
        space = change.pop("space", sampling_space())
        names = change.pop("benchmarks", ("gzip",))
        base = (tiny_scale, sampling_space(), ("gzip",))
        other = (tiny_scale.with_overrides(**change), space, names)
        assert _campaign_key(*base) != _campaign_key(*other)
        assert _campaign_fingerprint(*base, [16]) != _campaign_fingerprint(
            *other, [16]
        )


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

    def test_refresh_forces_rerun(self, tiny_scale):
        scale = tiny_scale.with_overrides(name="refresh-test", n_train=8)
        cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        fresh = cached_campaign(
            Simulator(), scale=scale, benchmarks=["gzip"], refresh=True
        )
        assert len(fresh.train_points) == 8

    def test_cache_file_created(self, tiny_scale):
        scale = tiny_scale.with_overrides(name="file-test", n_train=6)
        cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        files = list(cache_dir().glob("campaign-file-test-*.json"))
        assert files

    def test_corrupt_cache_regenerates(self, tiny_scale):
        scale = tiny_scale.with_overrides(name="corrupt-test", n_train=6)
        cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        for path in cache_dir().glob("campaign-corrupt-test-*.json"):
            path.write_text("garbage")
        campaign = cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        assert len(campaign.train_points) == 6

    def test_corrupt_cache_quarantined_with_warning(self, tiny_scale, caplog):
        scale = tiny_scale.with_overrides(name="quarantine-test", n_train=6)
        cached_campaign(Simulator(), scale=scale, benchmarks=["gzip"])
        (path,) = cache_dir().glob("campaign-quarantine-test-*.json")
        original = path.read_text()
        path.write_text(original[: len(original) // 2])  # truncated write

        with caplog.at_level("WARNING"):
            campaign = cached_campaign(
                Simulator(), scale=scale, benchmarks=["gzip"]
            )
        assert len(campaign.train_points) == 6
        quarantined = list(
            cache_dir().glob("campaign-quarantine-test-*.json.corrupt")
        )
        assert quarantined, "bad artifact was not quarantined"
        assert any("quarantined" in r.message for r in caplog.records)
        # the regenerated artifact is valid again
        assert path.exists()
        load_campaign(path, sampling_space(), scale)


class TestMalformedPayloads:
    def _write(self, tmp_path, mutate, campaign):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_missing_train_points_key(self, campaign, tiny_scale, tmp_path):
        path = self._write(
            tmp_path, lambda p: p.pop("train_points"), campaign
        )
        with pytest.raises(ArtifactError, match="train_points"):
            load_campaign(path, campaign.space, tiny_scale)

    def test_missing_metrics_key(self, campaign, tiny_scale, tmp_path):
        path = self._write(tmp_path, lambda p: p.pop("metrics"), campaign)
        with pytest.raises(ArtifactError, match="metrics"):
            load_campaign(path, campaign.space, tiny_scale)

    def test_missing_benchmark_in_metrics(self, campaign, tiny_scale, tmp_path):
        path = self._write(
            tmp_path,
            lambda p: p["metrics"]["train"].pop("gzip"),
            campaign,
        )
        with pytest.raises(ArtifactError, match="gzip"):
            load_campaign(path, campaign.space, tiny_scale)

    def test_metrics_wrong_type(self, campaign, tiny_scale, tmp_path):
        # a scalar where the split table should be: TypeError territory
        def mutate(p):
            p["metrics"]["train"] = 42

        path = self._write(tmp_path, mutate, campaign)
        with pytest.raises(ArtifactError, match="malformed"):
            load_campaign(path, campaign.space, tiny_scale)

    def test_non_numeric_metric_column(self, campaign, tiny_scale, tmp_path):
        def mutate(p):
            p["metrics"]["train"]["gzip"]["bips"] = ["not", "numbers"]

        path = self._write(tmp_path, mutate, campaign)
        with pytest.raises(ArtifactError, match="bips"):
            load_campaign(path, campaign.space, tiny_scale)

    def test_truncated_metric_column(self, campaign, tiny_scale, tmp_path):
        def mutate(p):
            p["metrics"]["train"]["gzip"]["watts"] = p["metrics"]["train"][
                "gzip"
            ]["watts"][:-1]

        path = self._write(tmp_path, mutate, campaign)
        with pytest.raises(ArtifactError, match="watts"):
            load_campaign(path, campaign.space, tiny_scale)

    def test_non_object_payload(self, campaign, tiny_scale, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ArtifactError, match="JSON object"):
            load_campaign(path, campaign.space, tiny_scale)


class TestCrashSafeSave:
    def test_interrupted_save_preserves_existing_artifact(
        self, campaign, tiny_scale, tmp_path, monkeypatch
    ):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        good = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(
            "repro.harness.artifacts.os.replace", exploding_replace
        )
        with pytest.raises(OSError):
            save_campaign(campaign, path)
        monkeypatch.undo()

        # the existing artifact is untouched and no temp litter remains
        assert path.read_text() == good
        assert list(tmp_path.glob("*.tmp")) == []
        load_campaign(path, campaign.space, tiny_scale)
