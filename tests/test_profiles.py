"""Tests for workload profiles and the nine-benchmark suite."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.workloads import (
    BENCHMARK_NAMES,
    SUITE,
    ProfileError,
    get_profile,
)
from repro.workloads.profile import reuse_survival, validate_strata


def mix_fraction(profile, *ops):
    """Share of ``profile``'s instructions in the op classes ``ops``."""
    return sum(profile.mix.get(op, 0.0) for op in ops)


class TestSuite:
    def test_nine_benchmarks(self):
        assert len(SUITE) == 9

    def test_paper_names(self):
        assert set(BENCHMARK_NAMES) == {
            "ammp", "applu", "equake", "gcc", "gzip", "jbb", "mcf", "mesa", "twolf",
        }

    def test_mix_sums_to_one(self):
        for profile in SUITE.values():
            assert sum(profile.mix.values()) == pytest.approx(1.0)

    def test_get_profile_unknown_lists_names(self):
        with pytest.raises(KeyError, match="ammp"):
            get_profile("bogus")

    def test_mcf_is_most_memory_bound(self):
        # mcf's survival at the largest L2 should dominate the suite's
        # integer benchmarks: it misses even with 4MB.
        l2_blocks = 4 * 1024 * 8
        mcf = get_profile("mcf").data_miss_rate(l2_blocks)
        gzip = get_profile("gzip").data_miss_rate(l2_blocks)
        assert mcf > 0.1
        assert gzip == pytest.approx(0.0)

    def test_mcf_l2_sensitivity(self):
        # the paper's Figure 2: mcf gains dramatically from 0.25 -> 4MB L2
        mcf = get_profile("mcf")
        small = mcf.data_miss_rate(0.25 * 1024 * 8)
        large = mcf.data_miss_rate(4 * 1024 * 8)
        assert small > 2 * large

    def test_applu_is_cache_insensitive(self):
        # streaming: even the largest L2 leaves a large miss floor
        applu = get_profile("applu")
        small = applu.data_miss_rate(0.25 * 1024 * 8)
        large = applu.data_miss_rate(4 * 1024 * 8)
        assert large > 0.25
        assert small - large < 0.15

    def test_jbb_has_largest_instruction_pressure(self):
        il1_blocks = 16 * 8  # 16KB i-L1
        rates = {
            name: get_profile(name).instr_miss_rate(il1_blocks)
            for name in BENCHMARK_NAMES
        }
        assert max(rates, key=rates.get) in ("jbb", "gcc", "mesa")
        assert rates["jbb"] > rates["gzip"]

    def test_fp_benchmarks_have_fp_work(self):
        for name in ("ammp", "applu", "equake", "mesa"):
            assert mix_fraction(get_profile(name), "fp", "fp_div") > 0.2

    def test_int_benchmarks_have_no_fp(self):
        for name in ("gcc", "gzip", "mcf", "twolf"):
            assert mix_fraction(get_profile(name), "fp", "fp_div") == 0.0

    def test_memory_fraction_in_sane_band(self):
        for profile in SUITE.values():
            assert 0.25 <= mix_fraction(profile, "load", "store") <= 0.5


class TestProfileValidation:
    def base_kwargs(self):
        return dict(
            name="toy",
            description="",
            mix={"int": 0.5, "load": 0.3, "branch": 0.2},
            dep_distance_mean=3.0,
            second_operand_rate=0.5,
            load_chain_rate=0.1,
            branch_bias=0.9,
            unpredictable_rate=0.1,
            static_branches=16,
            data_reuse_strata=((0.5, 10), (0.5, 100)),
            instr_reuse_strata=((1.0, 20),),
            ifetch_run_mean=8.0,
            data_footprint_blocks=100,
            data_zipf=1.0,
            sequential_run_mean=2.0,
            instr_footprint_blocks=20,
            loop_length_mean=4.0,
            loop_iterations_mean=10.0,
            ref_instructions=1e9,
        )

    def make(self, **overrides):
        from repro.workloads import WorkloadProfile

        kwargs = self.base_kwargs()
        kwargs.update(overrides)
        return WorkloadProfile(**kwargs)

    def test_valid_profile_constructs(self):
        assert self.make().name == "toy"

    def test_rejects_bad_mix_sum(self):
        with pytest.raises(ProfileError, match="sums"):
            self.make(mix={"int": 0.5, "load": 0.3})

    def test_rejects_unknown_op_class(self):
        with pytest.raises(ProfileError, match="unknown op"):
            self.make(mix={"int": 0.5, "vector": 0.5})

    def test_rejects_small_dep_distance(self):
        with pytest.raises(ProfileError):
            self.make(dep_distance_mean=0.5)

    def test_rejects_rate_out_of_range(self):
        with pytest.raises(ProfileError):
            self.make(load_chain_rate=1.5)

    def test_rejects_bias_below_half(self):
        with pytest.raises(ProfileError):
            self.make(branch_bias=0.4)

    def test_rejects_non_positive_ref_instructions(self):
        with pytest.raises(ProfileError):
            self.make(ref_instructions=0)

    def test_rejects_bad_strata_sum(self):
        with pytest.raises(ProfileError, match="weights sum"):
            self.make(data_reuse_strata=((0.5, 10),))

    def test_rejects_non_increasing_strata(self):
        with pytest.raises(ProfileError, match="increasing"):
            self.make(data_reuse_strata=((0.5, 100), (0.5, 10)))

    def test_rejects_empty_strata(self):
        with pytest.raises(ProfileError):
            validate_strata("toy", "strata", ())


class TestReuseSurvival:
    STRATA = ((0.6, 10), (0.3, 100), (0.1, 1000))

    def test_at_zero_capacity_everything_misses(self):
        assert reuse_survival(self.STRATA, 0) == 1.0

    def test_beyond_all_strata_nothing_misses(self):
        assert reuse_survival(self.STRATA, 1001) == pytest.approx(0.0)

    def test_at_first_limit(self):
        assert reuse_survival(self.STRATA, 10) == pytest.approx(0.4)

    def test_at_second_limit(self):
        assert reuse_survival(self.STRATA, 100) == pytest.approx(0.1)

    @given(st.floats(1, 2000), st.floats(1, 2000))
    def test_monotone_decreasing(self, a, b):
        small, large = sorted((a, b))
        assert reuse_survival(self.STRATA, small) >= reuse_survival(
            self.STRATA, large
        ) - 1e-12

    @given(st.floats(0, 5000))
    def test_bounded(self, capacity):
        value = reuse_survival(self.STRATA, capacity)
        assert 0.0 <= value <= 1.0
