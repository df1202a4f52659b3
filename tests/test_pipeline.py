"""Tests for the out-of-order timing model."""

import numpy as np
import pytest

from repro.simulator import (
    Simulator,
    baseline_config,
    run_pipeline,
)
from repro.simulator.memory import StackDistanceMemory
from repro.workloads import generate_trace, get_profile


@pytest.fixture(scope="module")
def gzip_trace():
    return generate_trace(get_profile("gzip"), 2000, seed=5)


@pytest.fixture(scope="module")
def mcf_trace():
    return generate_trace(get_profile("mcf"), 2000, seed=5)


def cycles_of(trace, config):
    return run_pipeline(trace, config).cycles


class TestBasics:
    def test_positive_cycles(self, gzip_trace):
        assert cycles_of(gzip_trace, baseline_config()) > 0

    def test_deterministic(self, gzip_trace):
        config = baseline_config()
        assert cycles_of(gzip_trace, config) == cycles_of(gzip_trace, config)

    def test_ipc_cannot_exceed_width(self, gzip_trace):
        config = baseline_config()
        outcome = run_pipeline(gzip_trace, config)
        assert len(gzip_trace) / outcome.cycles <= config.width

    def test_instruction_class_counts_sum(self, gzip_trace):
        counts = run_pipeline(gzip_trace, baseline_config()).counts
        total = (
            counts.int_ops + counts.int_mul_ops + counts.fp_ops
            + counts.fp_div_ops + counts.loads + counts.stores + counts.branches
        )
        assert total == counts.instructions == len(gzip_trace)

    def test_memory_counts_propagated(self, mcf_trace):
        counts = run_pipeline(mcf_trace, baseline_config()).counts
        assert counts.dl1_accesses == counts.loads + counts.stores
        assert counts.dl1_misses <= counts.dl1_accesses
        assert counts.l2_misses == counts.memory_accesses

    def test_register_traffic_accounted(self, gzip_trace):
        counts = run_pipeline(gzip_trace, baseline_config()).counts
        assert counts.gpr_writes == counts.int_ops + counts.int_mul_ops + counts.loads
        assert counts.gpr_reads > 0


class TestResourceSensitivity:
    """More generous resources should never make execution slower."""

    def test_larger_dl1_reduces_misses(self, mcf_trace):
        # Cycles need not improve — a larger d-L1 also has a higher access
        # latency (the mechanism behind the paper's small-cache optima) —
        # but the miss count must be monotone in capacity.
        small = run_pipeline(
            mcf_trace, baseline_config().with_overrides(dl1_kb=8.0)
        ).counts
        large = run_pipeline(
            mcf_trace, baseline_config().with_overrides(dl1_kb=128.0)
        ).counts
        assert large.dl1_misses <= small.dl1_misses

    def test_larger_l2_helps_or_equal(self, mcf_trace):
        small = cycles_of(mcf_trace, baseline_config().with_overrides(l2_mb=0.25))
        large = cycles_of(mcf_trace, baseline_config().with_overrides(l2_mb=4.0))
        assert large <= small

    def test_l2_matters_more_for_mcf_than_gzip(self, mcf_trace, gzip_trace):
        def relative_gain(trace):
            small = cycles_of(trace, baseline_config().with_overrides(l2_mb=0.25))
            large = cycles_of(trace, baseline_config().with_overrides(l2_mb=4.0))
            return small / large

        assert relative_gain(mcf_trace) > relative_gain(gzip_trace)

    def test_more_registers_help_or_equal(self, gzip_trace):
        tight = cycles_of(
            gzip_trace,
            baseline_config().with_overrides(gpr_phys=40, fpr_phys=40, spr_phys=42),
        )
        roomy = cycles_of(
            gzip_trace,
            baseline_config().with_overrides(gpr_phys=130, fpr_phys=112, spr_phys=96),
        )
        assert roomy <= tight

    def test_wider_machine_helps_or_equal(self, gzip_trace):
        narrow = cycles_of(
            gzip_trace,
            baseline_config().with_overrides(width=2, functional_units=1,
                                             ls_queue=15, store_queue=14),
        )
        wide = cycles_of(
            gzip_trace,
            baseline_config().with_overrides(width=8, functional_units=4,
                                             ls_queue=45, store_queue=42),
        )
        assert wide <= narrow

    def test_in_order_never_faster(self, gzip_trace):
        ooo = cycles_of(gzip_trace, baseline_config())
        ino = cycles_of(gzip_trace, baseline_config().with_overrides(in_order=True))
        assert ino >= ooo


class TestDepthEffects:
    def test_deeper_pipeline_needs_more_cycles(self, gzip_trace):
        deep = cycles_of(gzip_trace, baseline_config().with_overrides(depth_fo4=12.0))
        shallow = cycles_of(
            gzip_trace, baseline_config().with_overrides(depth_fo4=30.0)
        )
        assert deep > shallow

    def test_mispredict_penalty_grows_with_depth(self):
        # a branchy, unpredictable trace suffers more cycles per
        # mispredict on the deep pipeline
        trace = generate_trace(get_profile("gcc"), 2000, seed=9)
        deep = run_pipeline(trace, baseline_config().with_overrides(depth_fo4=12.0))
        shallow = run_pipeline(trace, baseline_config().with_overrides(depth_fo4=30.0))
        # same predictor path on both configurations
        assert deep.counts.mispredicts == shallow.counts.mispredicts
        assert deep.cycles > shallow.cycles


class TestPredictorInteraction:
    def test_worse_predictor_never_faster(self, gzip_trace):
        config = baseline_config()

        class AlwaysWrong:
            def predict_and_update(self, site, taken):
                return False

        good = run_pipeline(gzip_trace, config)
        bad = run_pipeline(
            gzip_trace, config, predictor=AlwaysWrong()
        )
        assert bad.cycles >= good.cycles
        assert bad.counts.mispredicts == bad.counts.branches

    def test_perfect_predictor_at_least_as_fast(self, gzip_trace):
        config = baseline_config()

        class Oracle:
            def predict_and_update(self, site, taken):
                return True

        real = run_pipeline(gzip_trace, config)
        oracle = run_pipeline(gzip_trace, config, predictor=Oracle())
        assert oracle.cycles <= real.cycles
        assert oracle.counts.mispredicts == 0


class TestMSHRs:
    def test_fewer_mshrs_never_faster(self, mcf_trace):
        many = cycles_of(mcf_trace, baseline_config().with_overrides(mshr_count=16))
        one = cycles_of(mcf_trace, baseline_config().with_overrides(mshr_count=1))
        assert one >= many

    def test_single_mshr_serializes_memory_misses(self, mcf_trace):
        config = baseline_config().with_overrides(mshr_count=1, l2_mb=0.25)
        outcome = run_pipeline(mcf_trace, config)
        # every memory miss holds the only MSHR for the full memory
        # latency, so total cycles must cover misses x latency
        lower_bound = outcome.counts.memory_accesses * config.memory_latency
        assert outcome.cycles >= lower_bound * 0.8  # stores excluded

    def test_mshr_count_irrelevant_for_cache_resident_workload(self, gzip_trace):
        # gzip barely touches memory, so the MSHR pool should not matter
        many = cycles_of(gzip_trace, baseline_config().with_overrides(mshr_count=16))
        one = cycles_of(gzip_trace, baseline_config().with_overrides(mshr_count=1))
        assert one <= many * 1.05

    def test_mshrs_matter_more_for_memory_bound(self, mcf_trace, gzip_trace):
        def slowdown(trace):
            many = cycles_of(trace, baseline_config().with_overrides(mshr_count=16))
            two = cycles_of(trace, baseline_config().with_overrides(mshr_count=2))
            return two / many

        assert slowdown(mcf_trace) >= slowdown(gzip_trace)


class TestPrefetcher:
    def test_prefetch_never_hurts(self, mcf_trace, gzip_trace):
        for trace in (mcf_trace, gzip_trace):
            off = cycles_of(trace, baseline_config())
            on = cycles_of(trace, baseline_config().with_overrides(prefetch=True))
            assert on <= off

    def test_streaming_gains_most(self):
        from repro.workloads import generate_trace, get_profile

        applu = generate_trace(get_profile("applu"), 2000, seed=5)
        gzip = generate_trace(get_profile("gzip"), 2000, seed=5)

        def speedup(trace):
            off = cycles_of(trace, baseline_config())
            on = cycles_of(trace, baseline_config().with_overrides(prefetch=True))
            return off / on

        assert speedup(applu) > speedup(gzip) + 0.3

    def test_coverage_counted(self, mcf_trace):
        outcome = run_pipeline(
            mcf_trace, baseline_config().with_overrides(prefetch=True)
        )
        assert outcome.counts.prefetch_covered > 0

    def test_no_coverage_when_disabled(self, mcf_trace):
        outcome = run_pipeline(mcf_trace, baseline_config())
        assert outcome.counts.prefetch_covered == 0

    def test_traffic_still_counted_for_power(self, mcf_trace):
        # prefetch hides latency but the miss traffic remains visible
        off = run_pipeline(mcf_trace, baseline_config()).counts
        on = run_pipeline(
            mcf_trace, baseline_config().with_overrides(prefetch=True)
        ).counts
        assert on.memory_accesses == off.memory_accesses
        assert on.dl1_misses == off.dl1_misses


class TestMemoryInjection:
    def test_injected_memory_is_used(self, mcf_trace):
        config = baseline_config()

        class AlwaysMiss(StackDistanceMemory):
            def data_access(self, block, reuse):
                return super().data_access(block, 1 << 50)

        fast = run_pipeline(mcf_trace, config)
        slow = run_pipeline(mcf_trace, config, memory=AlwaysMiss(config))
        assert slow.cycles > fast.cycles
        assert slow.counts.memory_accesses == slow.counts.dl1_accesses


class TestSimulatorFacade:
    def test_result_fields(self, gzip_trace):
        result = Simulator().simulate(gzip_trace, baseline_config())
        assert result.benchmark == "gzip"
        assert result.instructions == len(gzip_trace)
        assert result.watts is not None and result.watts > 0
        assert result.bips > 0
        assert result.power_breakdown

    def test_trace_memoization(self):
        simulator = Simulator()
        a = simulator.trace_for(get_profile("gzip"), 500, seed=1)
        b = simulator.trace_for(get_profile("gzip"), 500, seed=1)
        assert a is b
