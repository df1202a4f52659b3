"""Batched timing kernel: equivalence contract, one call per batch, trace LRU.

The batch kernel's contract is *exact* equivalence with the scalar
pipeline — identical cycles, identical ActivityCounts field by field,
identical watts — not agreement within tolerance.  ``Simulator.simulate``
picks the kernel by block size, so the tests force each kernel through
it (:func:`simulate_on`) or call ``run_pipeline_batch`` and
``run_pipeline`` directly, and hold whatever ``SCALAR_BLOCK_MAX`` is.
The property test drives randomized configs, trace lengths, benchmarks
and prefetch through both kernels; the window tests pin the kernel's
occupancy-window state against the scalar resource classes; the
loop-shortcut cases build blocks where each of the loop's skips and row
reads applies; the memory test pins the kernel's precompute layout; the
campaign tests check the contract survives the resilient executor and a
rerun from cached benchmarks.  The ``slow`` test repeats the contract at
paper length.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.designspace import extended_space, sample_uar, sampling_space
from repro.harness import campaign as campaign_module
from repro.harness import cached_campaign, get_scale, run_campaign
from repro.harness.resilience import ChunkFailure
from repro.obs.metrics import isolated_registry
from repro.simulator import (
    OneBitBHT,
    Simulator,
    config_from_point,
    run_pipeline,
    run_pipeline_batch,
)
from repro.simulator import batch as batch_module
from repro.simulator import simulator as simulator_module
from repro.simulator.batch import (
    _MaskedWindow,
    _acquisitions,
    _lockstep_rings,
)
from repro.simulator.resources import OccupancyWindow, ThroughputLimiter
from repro.workloads import BENCHMARK_NAMES, generate_trace, get_profile
from repro.workloads.trace import OP_BRANCH, OP_INT, OP_INT_MUL, OP_LOAD

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


def simulate_on(kernel, trace, configs, simulator=None):
    """``Simulator.simulate`` with its kernel forced: ``"scalar"`` runs
    each config on the scalar pipeline, ``"batch"`` the whole block in
    one batched kernel call."""
    limit = len(configs) if kernel == "scalar" else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "SCALAR_BLOCK_MAX", limit)
        return (simulator or Simulator()).simulate(trace, configs)


def configs_of(space, points):
    return [config_from_point(space, point) for point in points]


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
        configs = [
            config.with_overrides(prefetch=prefetch)
            for config in configs_of(space, sample_uar(space, n_points, seed=seed))
        ]
        assert_identical(
            simulate_on("batch", trace, configs, simulator),
            simulate_on("scalar", trace, configs, simulator),
        )


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


def _next_free(flat, key, row):
    """A ring slot's next-free times, read as the timing loop reads them."""
    return row if key is None else flat[key]


class TestLockstepWindow:
    """The kernel's lockstep rings against one scalar window per config."""

    @settings(deadline=None, max_examples=60)
    @given(case=_window_steps())
    @example(case=([1], [[5], [3], [9]]))
    @example(case=([1, 1, 1], [[1, 2, 3]] * 4))
    @example(case=([4, 1, 7], [[1, 2, 3], [4, 5, 6]]))
    @example(case=([3, 8, 1, 5], [[i, 2 * i, 3 * i, i + 7] for i in range(30)]))
    def test_next_free_matches_occupancy_windows(self, case):
        capacities, steps = case
        flat, (ring,) = _lockstep_rings([np.array(capacities, dtype=np.int64)])
        scalar = [OccupancyWindow(c) for c in capacities]
        slots = ring.cycle(len(steps) + 1)
        for (key, row), releases in zip(slots, steps):
            want = [w.next_free() for w in scalar]
            assert _next_free(flat, key, row).tolist() == want
            row[...] = releases
            for w, release in zip(scalar, releases):
                w.acquire(release)
        key, row = slots[-1]
        assert _next_free(flat, key, row).tolist() == [
            w.next_free() for w in scalar
        ]

    @settings(deadline=None, max_examples=60)
    @given(case=_window_steps())
    @example(case=([1], [[0], [0], [4], [1]]))
    @example(case=([2, 5, 1], [[i % 3, 0, i] for i in range(20)]))
    def test_next_slot_matches_throughput_limiters(self, case):
        rates, steps = case
        flat, (ring,) = _lockstep_rings([np.array(rates, dtype=np.int64)])
        scalar = [ThroughputLimiter(r) for r in rates]
        for (key, row), earliest in zip(ring.cycle(len(steps)), steps):
            time = np.maximum(earliest, _next_free(flat, key, row))
            row[...] = time + 1
            want = [l.next_slot(e) for l, e in zip(scalar, earliest)]
            assert time.tolist() == want

    def test_uniform_ring_reads_its_own_row(self):
        """Every lane at the ring's capacity: the slot's row is read, no
        gather; a varying ring gathers."""
        _, (uniform, varying) = _lockstep_rings(
            [np.array([3, 3]), np.array([3, 1])]
        )
        assert all(key is None for key, _ in uniform.slots)
        assert all(key is not None for key, _ in varying.slots)

    @settings(deadline=None, max_examples=40)
    @given(
        data=st.data(),
        lanes=st.integers(min_value=1, max_value=4),
        windows=st.integers(min_value=2, max_value=4),
    )
    def test_rings_sharing_one_buffer_stay_independent(
        self, data, lanes, windows
    ):
        """Rings of one call share a state buffer: uniform and varying
        rings side by side, acquired in an interleaved order, each match
        their own scalar windows."""
        capacity = st.integers(min_value=1, max_value=6)
        columns = [
            np.array(
                data.draw(st.lists(capacity, min_size=lanes, max_size=lanes)),
                dtype=np.int64,
            )
            for _ in range(windows)
        ]
        flat, rings = _lockstep_rings(columns)
        scalar = [[OccupancyWindow(int(c)) for c in col] for col in columns]
        order = data.draw(
            st.lists(st.integers(0, windows - 1), max_size=40)
        )
        counts = [0] * windows
        for step, w in enumerate(order):
            slots = rings[w].slots
            key, row = slots[counts[w] % len(slots)]
            counts[w] += 1
            assert _next_free(flat, key, row).tolist() == [
                s.next_free() for s in scalar[w]
            ]
            releases = [step * 10 + lane for lane in range(lanes)]
            row[...] = releases
            for s, release in zip(scalar[w], releases):
                s.acquire(release)

    def test_acquisitions_share_a_ring_across_op_classes(self):
        """Op classes that share a window share its acquisition count;
        an op class without one gets the empty slot."""
        _, (shared, other) = _lockstep_rings([np.array([3]), np.array([2])])
        ops = [OP_INT, OP_INT_MUL, OP_BRANCH, OP_INT, OP_INT_MUL]
        slots = _acquisitions(ops, {OP_INT: shared, OP_INT_MUL: shared})
        assert slots[2] == (None, None)
        rows = [row for _, row in shared.slots]
        got = [slot[1] for i, slot in enumerate(slots) if i != 2]
        assert [g is r for g, r in zip(got, rows + rows[:1])] == [True] * 4
        assert _acquisitions(ops, {OP_BRANCH: other})[2] == other.slots[0]

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


def scalar_outcome(trace, config):
    """``run_pipeline`` on one config after the simulator's warming."""
    predictor = OneBitBHT()
    simulator_module._warm_predictor(trace, predictor)
    return run_pipeline(trace, config, predictor=predictor)


def assert_kernel_matches_scalar(trace, configs):
    """``run_pipeline_batch`` on ``configs`` against ``run_pipeline`` on
    each config, field by field."""
    outcomes = run_pipeline_batch(trace, configs)
    assert len(outcomes) == len(configs)
    for config, outcome in zip(configs, outcomes):
        want = scalar_outcome(trace, config)
        assert outcome.cycles == want.cycles
        assert outcome.counts.as_dict() == want.counts.as_dict()
    return outcomes


def _service_levels(trace, configs):
    """Per-load and per-fetch-event service levels, ``[n, B]`` (2 = memory)."""
    view = batch_module._trace_view(trace)
    data_levels, instr_levels, _ = batch_module._stack_levels(view, configs)
    return data_levels[view.mem_is_load], instr_levels


class TestLoopShortcuts:
    """The timing loop skips rows that are the same in every lane (no
    memory miss, no fetch penalty) and reads a ring's own row when its
    capacity is the same in every lane.  Each case below asserts its
    precondition on the block, then batch against scalar."""

    @staticmethod
    def configs(space, count, seed, **values):
        return [
            config_from_point(space, point.replace(**values) if values else point)
            for point in sample_uar(space, count, seed=seed)
        ]

    def test_no_lane_misses_to_memory(self):
        trace = generate_trace(get_profile("gzip"), 1500, seed=1)
        configs = self.configs(SPACE, 6, seed=21, l2_mb=4.0, dl1_kb=128)
        load_levels, _ = _service_levels(trace, configs)
        assert not (load_levels == 2).any()
        assert_kernel_matches_scalar(trace, configs)

    def test_misses_in_some_lanes_only(self):
        """Loads miss to memory in some lanes and not others, with MSHR
        pools small enough (1, 2 or 4 entries) to bound issue."""
        trace = generate_trace(get_profile("mcf"), 1500, seed=1)
        points = sample_uar(SPACE, 8, seed=22)
        configs = [
            config.with_overrides(mshr_count=(1, 2, 4)[k % 3])
            for k, config in enumerate(configs_of(SPACE, points))
        ]
        misses = _service_levels(trace, configs)[0] == 2
        lanes_missing = misses.sum(axis=1)
        assert (lanes_missing == 0).any()
        assert ((lanes_missing > 0) & (lanes_missing < len(configs))).any()
        outcomes = assert_kernel_matches_scalar(trace, configs)
        unbounded = run_pipeline_batch(
            trace, [dataclasses.replace(c, mshr_count=64) for c in configs]
        )
        assert [o.cycles for o in outcomes] != [o.cycles for o in unbounded]

    def test_fetch_events_without_penalty_in_any_lane(self):
        trace = generate_trace(get_profile("gcc"), 1500, seed=1)
        configs = self.configs(SPACE, 6, seed=23)
        charged = (_service_levels(trace, configs)[1] > 0).any(axis=1)
        assert charged.any() and not charged.all()
        assert_kernel_matches_scalar(trace, configs)

    def test_uniform_window_next_to_varying_ones(self):
        """Only the width varies: fetch/retire/dispatch bandwidth, the
        queues and the unit pools differ per lane, while the rename
        registers, reservation stations and ROB are the same."""
        trace = generate_trace(get_profile("mesa"), 1500, seed=1)
        base = sample_uar(SPACE, 1, seed=24)[0]
        configs = [
            config_from_point(SPACE, base.replace(width=width))
            for width in (2, 4, 8, 4)
        ]
        assert len({c.width for c in configs}) == 3
        for attr in ("gpr_rename", "fpr_rename", "fx_resv", "br_resv", "rob_size"):
            assert len({getattr(c, attr) for c in configs}) == 1
        assert_kernel_matches_scalar(trace, configs)

    def test_in_order_and_prefetch_lanes_mixed(self):
        space = SPACES["extended"]
        trace = generate_trace(get_profile("applu"), 1500, seed=1)
        points = sample_uar(space, 8, seed=25)
        configs = [
            config_from_point(space, point.replace(in_order=k % 2)).with_overrides(
                prefetch=k % 4 >= 2
            )
            for k, point in enumerate(points)
        ]
        assert {c.in_order for c in configs} == {False, True}
        assert {c.prefetch for c in configs} == {False, True}
        outcomes = assert_kernel_matches_scalar(trace, configs)
        assert any(o.counts.prefetch_covered for o in outcomes)


@pytest.mark.slow
def test_batch_matches_scalar_at_paper_length():
    """Batch ≡ scalar on paper-length traces: 3 designs on each of the
    nine benchmarks at the paper preset's trace length (about 30 s;
    deselected from tier-1, run with ``-m slow``)."""
    scale = get_scale("paper")
    simulator = Simulator()
    configs = configs_of(SPACE, sample_uar(SPACE, 3, seed=scale.seed))
    for benchmark in BENCHMARK_NAMES:
        trace = simulator.trace_for(
            get_profile(benchmark), scale.trace_length, seed=scale.seed
        )
        assert len(trace) == 100_000
        assert_identical(
            simulate_on("batch", trace, configs, simulator),
            simulate_on("scalar", trace, configs, simulator),
        )


class TestBatchAPI:
    def test_every_benchmark_matches_scalar(self):
        simulator = Simulator()
        configs = configs_of(SPACE, sample_uar(SPACE, 4, seed=13))
        for benchmark in BENCHMARK_NAMES:
            trace = simulator.trace_for(get_profile(benchmark), 400, seed=1)
            assert_identical(
                simulate_on("batch", trace, configs, simulator),
                simulate_on("scalar", trace, configs, simulator),
            )

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_simulate_matches_scalar_at_every_block_size(self, block):
        """Whichever kernel the block size picks, ``simulate`` returns the
        per-config scalar results bitwise."""
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("mcf"), 300, seed=3)
        configs = configs_of(SPACE, sample_uar(SPACE, block, seed=block))
        want = [
            result
            for config in configs
            for result in simulate_on("scalar", trace, [config], simulator)
        ]
        got = simulator.simulate(trace, configs)
        assert_identical(got, want)
        for result, reference in zip(got, want):
            assert result.power_breakdown == reference.power_breakdown

    def test_block_size_picks_the_kernel(self, monkeypatch):
        """Up to ``SCALAR_BLOCK_MAX`` configs run one by one on the scalar
        pipeline; one more takes a single batched kernel call."""
        calls = []

        def counting(trace, configs):
            calls.append(len(configs))
            return run_pipeline_batch(trace, configs)

        monkeypatch.setattr(simulator_module, "run_pipeline_batch", counting)
        small = simulator_module.SCALAR_BLOCK_MAX
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 300, seed=5)
        configs = configs_of(SPACE, sample_uar(SPACE, small + 1, seed=6))
        with isolated_registry() as registry:
            simulator.simulate(trace, configs[:small])
            scalar = registry.snapshot()["counters"]
        assert calls == []
        assert scalar["simulator.simulations"] == small
        with isolated_registry() as registry:
            simulator.simulate(trace, configs)
            batched = registry.snapshot()["counters"]
        assert calls == [small + 1]
        assert "simulator.simulations" not in batched
        assert batched["simulator.batch.points"] == small + 1

    def test_lanes_are_independent(self):
        """A config's result does not depend on the block it rides in."""
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 400, seed=2)
        configs = configs_of(SPACE, sample_uar(SPACE, 8, seed=3))
        whole = simulator.simulate(trace, configs)
        split = [
            result
            for lo, hi in ((0, 1), (1, 4), (4, 8))
            for result in simulator.simulate(trace, configs[lo:hi])
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
            configs = configs_of(SPACE, sample_uar(SPACE, 9, seed=4))
            simulator.simulate(trace, configs)
            assert calls == [9]
            assert registry.snapshot()["counters"]["simulator.batch.blocks"] == 1

    def test_empty_points_returns_empty(self):
        simulator = Simulator()
        trace = simulator.trace_for(get_profile("gzip"), 200, seed=0)
        assert simulator.simulate(trace, []) == []

    def test_batch_metrics_are_reported(self):
        with isolated_registry() as registry:
            simulator = Simulator()
            trace = simulator.trace_for(get_profile("gzip"), 300, seed=6)
            block = simulator_module.SCALAR_BLOCK_MAX + 3
            configs = configs_of(SPACE, sample_uar(SPACE, block, seed=7))
            results = simulator.simulate(trace, configs)
            counters = registry.snapshot()["counters"]
            assert counters["simulator.batch.points"] == block
            assert counters["simulator.batch.blocks"] == 1
            assert counters["simulator.instructions"] == block * len(trace)
            assert counters["simulator.cycles"] == sum(r.cycles for r in results)

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
        n_load = int((trace.op == OP_LOAD).sum())
        assert peak < 1.5 * n_load * len(configs) * 8


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
        config = config_from_point(SPACE, sample_uar(SPACE, 1, seed=8)[0])
        cached = simulator.trace_for(profile, 200, seed=0)
        (before,) = simulate_on("scalar", cached, [config], simulator)
        simulate_on("batch", cached, [config], simulator)
        # every branch on one static site: a different branch stream
        aliased = dataclasses.replace(
            cached,
            branch_site=np.where(cached.op == OP_BRANCH, 0, -1).astype(np.int32),
        )
        assert (aliased.name, len(aliased), aliased.metadata["seed"]) == (
            cached.name, len(cached), cached.metadata["seed"]
        )
        assert not np.array_equal(aliased.branch_site, cached.branch_site)
        (got,) = simulate_on("scalar", aliased, [config], simulator)
        want = simulate_on("scalar", aliased, [config])
        assert_identical([got], want)
        assert got.counts.mispredicts != before.counts.mispredicts
        assert_identical(simulate_on("batch", aliased, [config], simulator), want)
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
        )
        self.assert_campaigns_equal(chunked, serial_campaign)

    def test_resumed_journaled_run_is_bitwise_identical(
        self, tiny_scale, serial_campaign, tmp_path, monkeypatch
    ):
        """Each finished benchmark is persisted as its chunk completes: a
        rerun after a failure simulates only the rest, bitwise equal."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        real = campaign_module._simulate_chunk

        def failing_third(simulator, benchmark, *args):
            if benchmark == self.BENCHMARKS[2]:
                raise RuntimeError(f"bug simulating {benchmark}")
            return real(simulator, benchmark, *args)

        with monkeypatch.context() as patch:
            patch.setattr(campaign_module, "_simulate_chunk", failing_third)
            with pytest.raises(ChunkFailure):
                cached_campaign(
                    Simulator(), scale=tiny_scale, benchmarks=self.BENCHMARKS
                )
        assert len(list(tmp_path.glob("campaign-*.json"))) == 2
        resumed = cached_campaign(
            Simulator(), scale=tiny_scale, benchmarks=self.BENCHMARKS
        )
        assert resumed.run_report.total_chunks == 1
        assert resumed.benchmarks == tuple(self.BENCHMARKS)
        self.assert_campaigns_equal(resumed, serial_campaign)
