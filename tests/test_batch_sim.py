"""Batched timing kernel: equivalence contract, one call per batch, trace LRU.

The batch kernel's contract is *exact* equivalence with the scalar
pipeline — identical cycles, identical ActivityCounts field by field,
identical watts — not agreement within tolerance.  The property test
drives randomized configs, trace lengths, benchmarks and prefetch through
both paths; the window tests pin the kernel's occupancy-window state
against the scalar resource classes; the memory test pins the kernel's
precompute layout; the campaign tests check the contract survives the
resilient executor and a rerun from cached benchmarks.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.designspace import extended_space, sample_uar, sampling_space
from repro.harness import (
    ResilienceConfig,
    cached_campaign,
    get_scale,
    run_campaign,
)
from repro.harness.resilience import ChunkFailure, Fault, FaultPlan
from repro.obs.metrics import isolated_registry
from repro.simulator import Simulator, config_from_point, run_pipeline_batch
from repro.simulator import batch as batch_module
from repro.simulator import simulator as simulator_module
from repro.simulator.batch import _LockstepWindow, _MaskedWindow
from repro.simulator.resources import OccupancyWindow, ThroughputLimiter
from repro.workloads import BENCHMARK_NAMES, generate_trace, get_profile
from repro.workloads.trace import OP_BRANCH

SPACE = sampling_space()
# Adds in-order issue and dl1 associativity, both of which reach the
# batch kernel through X7.
SPACES = {"sampling": SPACE, "extended": extended_space()}


def assert_identical(batch_results, scalar_results):
    """The equivalence contract: exact, field-by-field, no tolerances."""
    assert len(batch_results) == len(scalar_results)
    for got, want in zip(batch_results, scalar_results):
        assert got.cycles == want.cycles
        assert got.counts.as_dict() == want.counts.as_dict()
        assert float(got.watts) == float(want.watts)
        assert got.benchmark == want.benchmark


class TestEquivalenceProperty:
    @settings(deadline=None, max_examples=16)
    @given(
        space=st.sampled_from(sorted(SPACES)),
        seed=st.integers(min_value=0, max_value=2**16),
        n_points=st.integers(min_value=1, max_value=6),
        trace_length=st.integers(min_value=150, max_value=600),
        prefetch=st.booleans(),
        benchmark=st.sampled_from(("gzip", "mesa", "mcf")),
    )
    # A block that mixes in-order and out-of-order issue and three dl1
    # associativities under the stack-distance model.
    @example(
        space="extended", seed=3, n_points=6, trace_length=400,
        prefetch=False, benchmark="mcf",
    )
    def test_batch_matches_scalar(
        self, space, seed, n_points, trace_length, prefetch, benchmark
    ):
        space = SPACES[space]
        simulator = Simulator()
        trace = simulator.trace_for(
            get_profile(benchmark), trace_length, seed=seed % 3
        )
        points = sample_uar(space, n_points, seed=seed)
        batch = simulator.simulate_batch(
            space, points, trace, prefetch=prefetch
        )
        scalar = [
            simulator.simulate_point(space, point, trace, prefetch=prefetch)
            for point in points
        ]
        assert_identical(batch, scalar)


def _window_steps():
    """Per-config capacities plus a step sequence of per-config values.

    The sequence runs from empty to three times the largest capacity, so
    it both stays inside the ring and wraps it several times.
    """
    capacities = st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=5
    )

    def with_steps(caps):
        row = st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=len(caps),
            max_size=len(caps),
        )
        return st.tuples(
            st.just(caps), st.lists(row, max_size=3 * max(caps) + 2)
        )

    return capacities.flatmap(with_steps)


class TestLockstepWindow:
    """The kernel's shared-ring window against one scalar window per config."""

    @settings(deadline=None, max_examples=60)
    @given(case=_window_steps())
    @example(case=([1], [[5], [3], [9]]))
    @example(case=([1, 1, 1], [[1, 2, 3]] * 4))
    @example(case=([4, 1, 7], [[1, 2, 3], [4, 5, 6]]))
    @example(case=([3, 8, 1, 5], [[i, 2 * i, 3 * i, i + 7] for i in range(30)]))
    def test_next_free_matches_occupancy_windows(self, case):
        capacities, steps = case
        window = _LockstepWindow(np.array(capacities, dtype=np.int64))
        scalar = [OccupancyWindow(c) for c in capacities]
        for releases in steps:
            want = [w.next_free() for w in scalar]
            assert window.next_free().tolist() == want
            window.acquire(np.array(releases, dtype=np.int64))
            for w, release in zip(scalar, releases):
                w.acquire(release)
        assert window.next_free().tolist() == [w.next_free() for w in scalar]

    @settings(deadline=None, max_examples=60)
    @given(case=_window_steps())
    @example(case=([1], [[0], [0], [4], [1]]))
    @example(case=([2, 5, 1], [[i % 3, 0, i] for i in range(20)]))
    def test_next_slot_matches_throughput_limiters(self, case):
        rates, steps = case
        limiter = _LockstepWindow(np.array(rates, dtype=np.int64))
        scalar = [ThroughputLimiter(r) for r in rates]
        for earliest in steps:
            got = limiter.next_slot(np.array(earliest, dtype=np.int64))
            want = [l.next_slot(e) for l, e in zip(scalar, earliest)]
            assert got.tolist() == want

    @settings(deadline=None, max_examples=60)
    @given(case=_window_steps(), data=st.data())
    def test_masked_window_matches_occupancy_windows(self, case, data):
        capacities, steps = case
        window = _MaskedWindow(np.array(capacities, dtype=np.int64))
        scalar = [OccupancyWindow(c) for c in capacities]
        for releases in steps:
            mask = data.draw(
                st.lists(
                    st.booleans(),
                    min_size=len(capacities),
                    max_size=len(capacities),
                )
            )
            assert window.next_free().tolist() == [
                w.next_free() for w in scalar
            ]
            window.acquire_where(
                np.array(mask), np.array(releases, dtype=np.int64)
            )
            for w, taken, release in zip(scalar, mask, releases):
                if taken:
                    w.acquire(release)
        assert window.next_free().tolist() == [w.next_free() for w in scalar]


class TestBatchAPI:
    def test_every_benchmark_matches_scalar(self):
        simulator = Simulator()
        points = sample_uar(SPACE, 4, seed=13)
        for benchmark in BENCHMARK_NAMES:
            trace = simulator.trace_for(get_profile(benchmark), 400, seed=1)
            batch = simulator.simulate_batch(SPACE, points, trace)
            scalar = [
                simulator.simulate_point(SPACE, p, trace) for p in points
            ]
            assert_identical(batch, scalar)

    def test_lanes_are_independent(self):
        """A config's result does not depend on the block it rides in."""
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 400, seed=2)
        points = sample_uar(SPACE, 8, seed=3)
        whole = simulator.simulate_batch(SPACE, points, trace)
        split = [
            result
            for lo, hi in ((0, 1), (1, 4), (4, 8))
            for result in simulator.simulate_batch(SPACE, points[lo:hi], trace)
        ]
        assert_identical(split, whole)

    def test_one_kernel_call_per_batch(self, monkeypatch):
        calls = []

        def counting(trace, configs):
            calls.append(len(configs))
            return run_pipeline_batch(trace, configs)

        monkeypatch.setattr(simulator_module, "run_pipeline_batch", counting)
        with isolated_registry() as registry:
            simulator = Simulator()
            trace = simulator.trace_for(get_profile("mcf"), 300, seed=1)
            simulator.simulate_batch(SPACE, sample_uar(SPACE, 9, seed=4), trace)
            assert calls == [9]
            assert registry.snapshot()["counters"]["simulator.batch.blocks"] == 1

    def test_empty_points_returns_empty(self):
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 200, seed=0)
        assert simulator.simulate_batch(SPACE, [], trace) == []

    def test_batch_metrics_are_reported(self):
        with isolated_registry() as registry:
            simulator = Simulator()
            trace = simulator.trace_for(get_profile("gzip"), 300, seed=6)
            points = sample_uar(SPACE, 5, seed=7)
            simulator.simulate_batch(SPACE, points, trace)
            counters = registry.snapshot()["counters"]
            assert counters["simulator.batch.points"] == 5
            assert counters["simulator.batch.blocks"] == 1
            assert counters["simulator.instructions"] == 5 * len(trace)

    def test_one_predictor_replay_per_trace(self, monkeypatch):
        """Every config shares the Table 3 predictor, so the branch
        stream is replayed once per trace, however the blocks differ."""
        built = []

        class CountingBHT(batch_module.OneBitBHT):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(batch_module, "OneBitBHT", CountingBHT)
        space = SPACES["extended"]
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gcc"), 300, seed=4)
        base = sample_uar(space, 1, seed=5)[0]
        blocks = [
            [base.replace(dl1_assoc=1, in_order=0), base.replace(dl1_assoc=8)],
            [base.replace(in_order=1), base.replace(dl1_assoc=4, in_order=1)],
        ]
        for points in blocks:
            configs = [config_from_point(space, p) for p in points]
            run_pipeline_batch(trace, configs)
        assert len(built) == 1


class TestKernelMemory:
    def test_load_rows_are_built_in_loop_layout(self):
        """The per-load latency rows are built once, as int32, in the
        timing loop's ``[n, B]`` layout, and the level matrices go as soon
        as their counters are taken: one call's traced peak stays under
        1.5x a single ``[n_load, B]`` int64 matrix."""
        trace = generate_trace(get_profile("mcf"), 20_000, seed=7)
        configs = [
            config_from_point(SPACE, point)
            for point in sample_uar(SPACE, 256, seed=3)
        ]
        tracemalloc.start()
        try:
            run_pipeline_batch(trace, configs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * trace.load_count() * len(configs) * 8


class TestTraceCacheLRU:
    def test_hit_miss_evict_counters(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "TRACE_CACHE_SIZE", 2)
        with isolated_registry() as registry:
            simulator = Simulator()
            profile = get_profile("gzip")
            simulator.trace_for(profile, 200, seed=0)   # miss
            simulator.trace_for(profile, 200, seed=0)   # hit
            simulator.trace_for(profile, 200, seed=1)   # miss
            simulator.trace_for(profile, 200, seed=2)   # miss, evicts seed=0
            counters = registry.snapshot()["counters"]
            assert counters["sim.trace_cache.hit"] == 1
            assert counters["sim.trace_cache.miss"] == 3
            assert counters["sim.trace_cache.evict"] == 1
            assert len(simulator._trace_cache) == 2

    def test_eviction_order_is_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "TRACE_CACHE_SIZE", 2)
        simulator = Simulator()
        profile = get_profile("gzip")
        simulator.trace_for(profile, 200, seed=0)
        simulator.trace_for(profile, 200, seed=1)
        simulator.trace_for(profile, 200, seed=0)   # refresh seed=0
        simulator.trace_for(profile, 200, seed=2)   # evicts seed=1, not 0
        keys = list(simulator._trace_cache)
        assert ("gzip", 200, 0) in keys
        assert ("gzip", 200, 1) not in keys

    def test_trace_sharing_a_cache_key_gets_its_own_branch_stream(self):
        """A trace built from a cached trace's columns can share its
        (name, length, seed); its warming and mispredict streams must
        come from its own columns."""
        simulator = Simulator()
        profile = get_profile("gzip")
        point = sample_uar(SPACE, 1, seed=8)[0]
        cached = simulator.trace_for(profile, 200, seed=0)
        before = simulator.simulate_point(SPACE, point, cached)
        simulator.simulate_batch(SPACE, [point], cached)
        # every branch on one static site: a different branch stream
        aliased = dataclasses.replace(
            cached,
            branch_site=np.where(cached.op == OP_BRANCH, 0, -1).astype(np.int32),
        )
        assert (aliased.name, len(aliased), aliased.metadata["seed"]) == (
            cached.name, len(cached), cached.metadata["seed"]
        )
        assert not np.array_equal(aliased.branch_site, cached.branch_site)
        got = simulator.simulate_point(SPACE, point, aliased)
        want = Simulator().simulate_point(SPACE, point, aliased)
        assert_identical([got], [want])
        assert got.counts.mispredicts != before.counts.mispredicts
        assert_identical(simulator.simulate_batch(SPACE, [point], aliased), [want])
        # each trace object memoizes the streams of its own columns
        key = ("simulator", "branch_stream")
        assert aliased.derived(key, list) != cached.derived(key, list)
        key = ("batch", "mispredict")
        assert not np.array_equal(
            aliased.derived(key, list), cached.derived(key, list)
        )

    def test_evicted_trace_regenerates_identically(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "TRACE_CACHE_SIZE", 1)
        simulator = Simulator()
        profile = get_profile("gzip")
        first = simulator.trace_for(profile, 200, seed=0)
        simulator.trace_for(profile, 200, seed=1)   # evicts seed=0
        again = simulator.trace_for(profile, 200, seed=0)
        assert first is not again
        assert np.array_equal(first.op, again.op)
        assert np.array_equal(first.mem_block, again.mem_block)
        assert np.array_equal(first.taken, again.taken)


class TestCampaignBatchPath:
    """A campaign through the resilient executor, and a campaign rerun
    from its cached benchmarks, agree bitwise with the default run.  The independent per-point scalar check of a
    whole campaign lives in ``tests/test_campaign.py``."""

    @pytest.fixture(scope="class")
    def tiny_scale(self):
        return get_scale("ci").with_overrides(
            name="tiny-batch", trace_length=400, n_train=6, n_validation=2
        )

    #: One chunk per benchmark: three give the fault below a real chunk
    #: to land on after two have been cached.
    BENCHMARKS = ["gzip", "mcf", "mesa"]

    @pytest.fixture(scope="class")
    def serial_campaign(self, tiny_scale):
        return run_campaign(
            Simulator(), scale=tiny_scale, benchmarks=self.BENCHMARKS
        )

    def assert_campaigns_equal(self, got, want):
        for benchmark in got.benchmarks:
            for split in ("train", "validation"):
                got_metrics = got.dataset(benchmark, split).metrics
                want_metrics = want.dataset(benchmark, split).metrics
                assert np.array_equal(
                    got_metrics["bips"], want_metrics["bips"]
                )
                assert np.array_equal(
                    got_metrics["watts"], want_metrics["watts"]
                )

    def test_chunked_batch_path_matches_scalar_serial(
        self, tiny_scale, serial_campaign
    ):
        chunked = run_campaign(
            Simulator(),
            scale=tiny_scale,
            benchmarks=["gzip"],
            resilience=ResilienceConfig(),
        )
        self.assert_campaigns_equal(chunked, serial_campaign)

    def test_resumed_journaled_run_is_bitwise_identical(
        self, tiny_scale, serial_campaign, tmp_path, monkeypatch
    ):
        """Each finished benchmark is persisted as its chunk completes: a
        rerun after a failure simulates only the rest, bitwise equal."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        faults = FaultPlan([Fault(chunk=2, kind="permanent")])
        with pytest.raises(ChunkFailure):
            cached_campaign(
                Simulator(),
                scale=tiny_scale,
                benchmarks=self.BENCHMARKS,
                resilience=ResilienceConfig(faults=faults),
            )
        assert len(list(tmp_path.glob("campaign-*.json"))) == 2
        resumed = cached_campaign(
            Simulator(), scale=tiny_scale, benchmarks=self.BENCHMARKS
        )
        assert resumed.run_report.total_chunks == 1
        assert resumed.benchmarks == tuple(self.BENCHMARKS)
        self.assert_campaigns_equal(resumed, serial_campaign)
