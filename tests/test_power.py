"""Tests for the CACTI and PowerTimer-style power models."""

import pytest
from hypothesis import given, strategies as st

from repro.power import PowerModel, cacti, scaling
from repro.power.cacti import CactiError
from repro.simulator import Simulator, baseline_config
from repro.workloads import generate_trace, get_profile


def component(name, config, counts):
    """Watts of one structure for one design: a block of one."""
    return PowerModel().breakdown(config, counts).components[name]


@pytest.fixture(scope="module")
def baseline_result():
    trace = generate_trace(get_profile("gzip"), 1500, seed=2)
    (result,) = Simulator().simulate(trace, [baseline_config()])
    return result


class TestCacti:
    def test_access_time_grows_with_size(self):
        assert cacti.access_time_ns(256) > cacti.access_time_ns(8)

    def test_access_time_grows_with_assoc(self):
        assert cacti.access_time_ns(32, 8) > cacti.access_time_ns(32, 1)

    def test_energy_grows_with_size(self):
        assert cacti.access_energy_nj(2048) > cacti.access_energy_nj(32)

    def test_leakage_near_linear(self):
        ratio = cacti.leakage_w(4096) / cacti.leakage_w(1024)
        assert 3.0 < ratio < 4.2

    def test_rejects_non_positive_size(self):
        with pytest.raises(CactiError):
            cacti.access_time_ns(0)

    def test_rejects_bad_assoc(self):
        with pytest.raises(CactiError):
            cacti.access_energy_nj(32, 0)

    @given(st.floats(1, 8192))
    def test_quantities_positive(self, size_kb):
        assert cacti.access_time_ns(size_kb) > 0
        assert cacti.access_energy_nj(size_kb) > 0
        assert cacti.leakage_w(size_kb) > 0


class TestScaling:
    def test_width_scale_reference_is_unity(self):
        assert scaling.width_scale(4, scaling.PORTED_EXPONENT) == 1.0

    def test_width_scale_superlinear_growth(self):
        assert scaling.width_scale(8, 1.25) > 2.0  # more than linear-in-log

    def test_width_scale_rejects_zero(self):
        with pytest.raises(ValueError):
            scaling.width_scale(0, 1.0)

    def test_latch_count_grows_with_depth(self):
        assert scaling.latch_count(12, 4) > scaling.latch_count(30, 4)

    def test_latch_count_grows_with_width(self):
        assert scaling.latch_count(18, 8) > scaling.latch_count(18, 2)


class TestStructurePowers:
    def test_all_components_positive(self, baseline_result):
        breakdown = PowerModel().breakdown(baseline_config(), baseline_result.counts)
        for name, watts in breakdown.components.items():
            assert watts > 0, name

    def test_total_is_sum(self, baseline_result):
        breakdown = PowerModel().breakdown(baseline_config(), baseline_result.counts)
        assert breakdown.total == pytest.approx(sum(breakdown.components.values()))

    def test_clock_power_depth_sensitivity(self, baseline_result):
        counts = baseline_result.counts
        deep = component(
            "clock", baseline_config().with_overrides(depth_fo4=12.0), counts
        )
        shallow = component(
            "clock", baseline_config().with_overrides(depth_fo4=30.0), counts
        )
        assert deep > 2 * shallow

    def test_regfile_power_grows_with_width(self, baseline_result):
        narrow = component(
            "regfile",
            baseline_config().with_overrides(width=2),
            baseline_result.counts,
        )
        wide = component(
            "regfile",
            baseline_config().with_overrides(width=8),
            baseline_result.counts,
        )
        assert wide > narrow

    def test_cache_power_grows_with_l2(self, baseline_result):
        small = component(
            "caches",
            baseline_config().with_overrides(l2_mb=0.25),
            baseline_result.counts,
        )
        large = component(
            "caches",
            baseline_config().with_overrides(l2_mb=4.0),
            baseline_result.counts,
        )
        assert large > small

    def test_wrong_path_energy_charged(self, baseline_result):
        """Mispredicts waste frontend energy, more so on deep pipelines."""
        import dataclasses

        counts_clean = dataclasses.replace(baseline_result.counts, mispredicts=0)
        counts_dirty = dataclasses.replace(
            baseline_result.counts, mispredicts=baseline_result.counts.branches
        )
        shallow = baseline_config().with_overrides(depth_fo4=30.0)
        deep = baseline_config().with_overrides(depth_fo4=12.0)
        clean_deep = component("frontend", deep, counts_clean)
        dirty_deep = component("frontend", deep, counts_dirty)
        clean_shallow = component("frontend", shallow, counts_clean)
        dirty_shallow = component("frontend", shallow, counts_dirty)
        assert dirty_deep > clean_deep
        # deep pipelines flush more wasted work per mispredict
        assert (dirty_deep / clean_deep) > (dirty_shallow / clean_shallow)

    def test_issue_queue_power_grows_with_entries(self, baseline_result):
        small = component(
            "issue_queues",
            baseline_config().with_overrides(fx_resv=10, fp_resv=5, br_resv=6),
            baseline_result.counts,
        )
        large = component(
            "issue_queues",
            baseline_config().with_overrides(fx_resv=28, fp_resv=14, br_resv=15),
            baseline_result.counts,
        )
        assert large > small


class TestPowerModel:
    def test_baseline_in_plausible_band(self, baseline_result):
        # the POWER4-like baseline should land in the tens of watts
        assert 15.0 < baseline_result.watts < 90.0

    def test_no_cycles_means_no_activity_power(self):
        """Events over zero cycles count as no activity: only the clock
        and the standing (idle and leakage) terms remain."""
        from repro.simulator import ActivityCounts

        breakdown = PowerModel().breakdown(
            baseline_config(), ActivityCounts(instructions=5, branches=2)
        )
        assert breakdown.components["frontend"] == 0.0
        assert breakdown.components["clock"] > 0.0
        assert all(w >= 0.0 for w in breakdown.components.values())

    def test_evaluate_attaches_breakdown(self, baseline_result):
        assert set(baseline_result.power_breakdown) == {
            "clock", "frontend", "regfile", "issue_queues", "lsq",
            "functional_units", "caches", "base_leakage",
        }

    def test_power_range_across_space_extremes(self):
        trace = generate_trace(get_profile("mesa"), 1500, seed=2)
        simulator = Simulator()
        big, small = simulator.simulate(
            trace,
            [
                baseline_config().with_overrides(
                    depth_fo4=12.0, width=8, functional_units=4,
                    gpr_phys=130, fpr_phys=112, spr_phys=96,
                    ls_queue=45, store_queue=42,
                    il1_kb=256.0, dl1_kb=128.0, l2_mb=4.0,
                ),
                baseline_config().with_overrides(
                    depth_fo4=30.0, width=2, functional_units=1,
                    gpr_phys=40, fpr_phys=40, spr_phys=42,
                    ls_queue=15, store_queue=14,
                    il1_kb=16.0, dl1_kb=8.0, l2_mb=0.25,
                ),
            ],
        )
        assert big.watts > 4 * small.watts  # the paper's wide dynamic range
