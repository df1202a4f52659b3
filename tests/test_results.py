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
    def test_as_dict_round_trips_fields(self):
        counts = ActivityCounts(loads=3, stores=2)
        payload = counts.as_dict()
        assert payload["loads"] == 3
        assert payload["stores"] == 2
        assert set(payload) == set(ActivityCounts.__dataclass_fields__)
