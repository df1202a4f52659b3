"""Tests for the FO4 depth / frequency / stage-count model."""

import pytest
from hypothesis import given, strategies as st

from repro.simulator import frequency
from repro.simulator.frequency import FrequencyError


class TestClock:
    def test_cycle_time_linear_in_fo4(self):
        assert frequency.cycle_time_ps(12) == pytest.approx(480.0)
        assert frequency.cycle_time_ps(30) == pytest.approx(1200.0)

    def test_baseline_is_power4_class(self):
        # 19 FO4 at 40 ps/FO4 -> ~1.3 GHz, the POWER4 neighbourhood
        assert frequency.frequency_ghz(19) == pytest.approx(1.32, abs=0.02)

    def test_deeper_pipeline_is_faster(self):
        assert frequency.frequency_ghz(12) > frequency.frequency_ghz(30)

    def test_rejects_depth_at_or_below_overhead(self):
        with pytest.raises(FrequencyError):
            frequency.cycle_time_ps(3.0)
        with pytest.raises(FrequencyError):
            frequency.frequency_ghz(2.0)


class TestStages:
    def test_frontend_stage_counts(self):
        # 120 FO4 of logic over (depth - 3) usable FO4 per stage
        assert frequency.frontend_stages(12) == 14
        assert frequency.frontend_stages(30) == 5

    def test_total_stages(self):
        assert frequency.total_stages(12) == 27
        assert frequency.total_stages(30) == 9

    def test_deeper_means_more_stages(self):
        depths = (12, 15, 18, 21, 24, 27, 30)
        stages = [frequency.total_stages(d) for d in depths]
        assert stages == sorted(stages, reverse=True)

    def test_at_least_one_stage(self):
        assert frequency.stages_for_logic(1.0, 36) == 1

    @given(st.floats(5, 36), st.floats(1, 500))
    def test_stage_count_covers_logic(self, depth, logic):
        stages = frequency.stages_for_logic(logic, depth)
        usable = depth - frequency.LATCH_OVERHEAD_FO4
        assert stages * usable >= logic - 1e-9


class TestLatencies:
    def test_latency_cycles_quantizes_up(self):
        assert frequency.latency_cycles(125, 30) == 5
        assert frequency.latency_cycles(125, 12) == 11

    def test_latency_minimum(self):
        assert frequency.latency_cycles(1, 30) == 1

    def test_ns_to_cycles_scales_with_frequency(self):
        at_12 = frequency.ns_to_cycles(60.0, 12)
        at_30 = frequency.ns_to_cycles(60.0, 30)
        assert at_12 > at_30
        assert at_12 == 125  # 60ns / 0.48ns
        assert at_30 == 50

    @given(st.floats(5, 36), st.floats(0.1, 100))
    def test_ns_to_cycles_covers_latency(self, depth, ns):
        cycles = frequency.ns_to_cycles(ns, depth)
        period_ns = frequency.cycle_time_ps(depth) / 1000.0
        assert cycles * period_ns >= ns - 1e-9
