"""Tests for simulation result containers."""

import pytest

from repro.simulator import ActivityCounts, SimulationResult


def make_result(**overrides):
    kwargs = dict(
        benchmark="toy",
        cycles=1000,
        instructions=800,
        frequency_ghz=2.0,
        counts=ActivityCounts(instructions=800, cycles=1000),
        ref_instructions=1.6e9,
    )
    kwargs.update(overrides)
    return SimulationResult(**kwargs)


class TestDerivedMetrics:
    def test_ipc(self):
        assert make_result().ipc == pytest.approx(0.8)

    def test_bips(self):
        assert make_result().bips == pytest.approx(1.6)

    def test_delay_seconds(self):
        assert make_result().delay_seconds == pytest.approx(1.0)

    def test_bips3_per_watt(self):
        result = make_result()
        result.watts = 40.0
        assert result.bips3_per_watt == pytest.approx(1.6**3 / 40.0)

    def test_bips3_requires_power(self):
        with pytest.raises(ValueError, match="PowerModel"):
            make_result().bips3_per_watt


class TestValidation:
    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            make_result(cycles=0)

    def test_rejects_zero_instructions(self):
        with pytest.raises(ValueError):
            make_result(instructions=0)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            make_result(frequency_ghz=0.0)


class TestActivityCounts:
    def test_rates(self):
        counts = ActivityCounts(
            cycles=10, branches=10, mispredicts=2,
            dl1_accesses=20, dl1_misses=5,
            il1_accesses=10, il1_misses=1,
            l2_accesses=6, l2_misses=3,
        )
        assert counts.mispredict_rate == 0.2
        assert counts.dl1_miss_rate == 0.25
        assert counts.il1_miss_rate == 0.1
        assert counts.l2_miss_rate == 0.5

    def test_rates_default_zero(self):
        counts = ActivityCounts()
        assert counts.mispredict_rate == 0.0
        assert counts.dl1_miss_rate == 0.0

    def test_as_dict_round_trips_fields(self):
        counts = ActivityCounts(loads=3, stores=2)
        payload = counts.as_dict()
        assert payload["loads"] == 3
        assert payload["stores"] == 2
        assert set(payload) == set(ActivityCounts.__dataclass_fields__)


class TestSerialization:
    def test_as_dict(self):
        result = make_result()
        result.watts = 30.0
        payload = result.as_dict()
        assert payload["benchmark"] == "toy"
        assert payload["bips"] == pytest.approx(1.6)
        assert payload["watts"] == 30.0
        assert "counts" in payload
