"""Tests for the chunk executor and the campaign's recovery paths.

Faults are injected from the test side: module-level chunk functions
that raise, return a truncated payload, or kill the pool worker they
run in, and campaign tests that replace ``campaign._simulate_chunk`` on
the in-process path.  The guarantees checked: results in task order and
identical to a serial run, a failing or rejected chunk aborts with
:class:`ChunkFailure` naming it, a killed worker degrades to serial with
identical results, an interrupt leaves no worker behind, and a rerun of
an interrupted campaign simulates only what is missing.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.harness import campaign as campaign_module
from repro.harness import cached_campaign, get_scale, run_campaign
from repro.harness.resilience import (
    ChunkFailure,
    ChunkTask,
    CorruptResultError,
    run_chunks,
)
from repro.obs import configure_tracing, disable_tracing, get_registry, read_trace
from repro.simulator import Simulator


def _double_chunk(values):
    """Picklable test workload: double each value."""
    return [v * 2 for v in values]


def _raising_chunk(values):
    """A chunk with a deterministic bug."""
    raise RuntimeError("bug in chunk")


def _truncating_chunk(values):
    """A chunk whose payload is one result short."""
    return _double_chunk(values)[:-1]


def _killing_chunk(values, driver_pid):
    """Kill the pool worker it runs in; succeed in the driver process."""
    if os.getpid() != driver_pid:
        os._exit(13)
    return _double_chunk(values)


def _sleeping_chunk(values):
    """Occupy a worker long enough that only termination ends it."""
    time.sleep(30)
    return _double_chunk(values)


def _tasks(n_chunks=4, chunk_len=3, faulty=None):
    """Doubling tasks, with ``faulty`` mapping an index to another fn."""
    faulty = faulty or {}
    tasks = []
    for i in range(n_chunks):
        values = [i * 10 + j for j in range(chunk_len)]
        fn = faulty.get(i, _double_chunk)
        args = (values, os.getpid()) if fn is _killing_chunk else (values,)
        tasks.append(
            ChunkTask(index=i, fn=fn, args=args, size=chunk_len, meta=("chunk", i))
        )
    return tasks


def _expected(tasks):
    return [_double_chunk(task.args[0]) for task in tasks]


def _validate_length(task, payload):
    if not isinstance(payload, list) or len(payload) != task.size:
        raise CorruptResultError(f"chunk {task.index} payload truncated")


@pytest.fixture
def trace_events(tmp_path):
    """Trace the test to a file; calling the fixture reads back its events."""
    path = tmp_path / "trace.jsonl"
    configure_tracing(path)
    yield lambda: [r for r in read_trace(path, strict=True) if r["kind"] == "event"]
    disable_tracing()


class TestRunChunksSerial:
    def test_clean_run(self):
        tasks = _tasks()
        results, report = run_chunks(tasks)
        assert results == _expected(tasks)
        assert report.completed == report.total_chunks == len(tasks)
        assert report.failure is None and not report.degraded

    def test_permanent_fault_aborts_with_named_chunk(self, trace_events):
        with pytest.raises(ChunkFailure) as excinfo:
            run_chunks(_tasks(faulty={2: _raising_chunk}))
        assert "chunk 2" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        report = excinfo.value.report
        assert report.failure is not None and "chunk 2" in report.failure
        # chunks before the failure completed and are accounted
        assert report.completed == 2
        events = trace_events()
        assert [e["name"] for e in events] == ["resilience.chunk_failed"]
        assert events[0]["attrs"]["chunk"] == 2

    def test_corrupt_payload_caught_by_validator_aborts(self):
        delivered = []
        with pytest.raises(ChunkFailure, match="CorruptResultError") as excinfo:
            run_chunks(
                _tasks(faulty={3: _truncating_chunk}),
                validate=_validate_length,
                on_chunk=lambda task, payload: delivered.append(task.index),
            )
        # the rejected payload never reaches on_chunk
        assert delivered == [0, 1, 2]
        report = excinfo.value.report
        assert report.completed == 3 and "chunk 3" in report.failure

    def test_corrupt_payload_without_validator_passes_through(self):
        # the validator is the contract: without one, corruption is silent
        tasks = _tasks(n_chunks=1, faulty={0: _truncating_chunk})
        results, _ = run_chunks(tasks)
        assert len(results[0]) == tasks[0].size - 1


class TestRunChunksParallel:
    def test_out_of_order_completion_returns_in_task_order(self):
        seen = []
        tasks = _tasks(n_chunks=8, chunk_len=2)
        results, _ = run_chunks(
            tasks,
            workers=4,
            on_chunk=lambda task, payload: seen.append(task.index),
        )
        assert results == _expected(tasks)
        assert sorted(seen) == list(range(8))

    def test_permanent_fault_aborts_on_the_pool(self):
        with pytest.raises(ChunkFailure, match="chunk 1"):
            run_chunks(_tasks(faulty={1: _raising_chunk}), workers=2)
        assert multiprocessing.active_children() == []

    def test_repeated_pool_breakage_degrades_to_serial(self, trace_events):
        # Both chunks kill every worker they run in; the pool is not
        # rebuilt, so they (and anything else unfinished) run in-process.
        tasks = _tasks(n_chunks=4, faulty={1: _killing_chunk, 2: _killing_chunk})
        results, report = run_chunks(tasks, workers=2)
        assert results == _expected(tasks)
        assert report.degraded
        assert report.completed == report.total_chunks == 4
        assert "degraded to serial" in report.summary()
        events = trace_events()
        assert [e["name"] for e in events] == ["resilience.degraded"]
        assert events[0]["attrs"]["remaining_chunks"] >= 2
        assert multiprocessing.active_children() == []

    def test_interrupt_from_on_chunk_terminates_pool(self):
        # Chunk 0 finishes while chunk 1 still occupies a worker; an
        # interrupt raised then must propagate and kill that worker
        # rather than wait for it.
        tasks = _tasks(n_chunks=3, faulty={1: _sleeping_chunk, 2: _sleeping_chunk})

        def interrupt(task, payload):
            raise KeyboardInterrupt

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_chunks(tasks, workers=2, on_chunk=interrupt)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 15.0


@pytest.fixture(scope="module")
def resilience_scale():
    return get_scale("ci").with_overrides(
        name="resilience-test", trace_length=500, n_train=6, n_validation=3
    )


#: A campaign is one chunk per benchmark; three give a failure after
#: two finished benchmarks a chunk to land on.
CAMPAIGN_BENCHMARKS = ["gzip", "mcf", "mesa"]


@pytest.fixture(scope="module")
def clean_campaign(resilience_scale):
    return run_campaign(
        Simulator(), scale=resilience_scale, benchmarks=CAMPAIGN_BENCHMARKS
    )


def _failing_on(benchmark, error):
    """A ``_simulate_chunk`` stand-in that raises ``error`` on ``benchmark``."""
    real = campaign_module._simulate_chunk

    def chunk(simulator, space, name, *args):
        if name == benchmark:
            raise error
        return real(simulator, space, name, *args)

    return chunk


def _assert_campaigns_bitwise_equal(campaign, other):
    assert campaign.benchmarks == other.benchmarks
    for bench in campaign.benchmarks:
        for split in ("train", "validation"):
            ours = campaign.dataset(bench, split).metrics
            theirs = other.dataset(bench, split).metrics
            assert np.array_equal(ours["bips"], theirs["bips"])
            assert np.array_equal(ours["watts"], theirs["watts"])


class TestCampaignResilience:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_chunk_per_benchmark(
        self, resilience_scale, clean_campaign, workers
    ):
        """A chunk is one benchmark's whole point list: one trace and
        one kernel call per benchmark."""
        campaign = run_campaign(
            Simulator(),
            scale=resilience_scale,
            benchmarks=CAMPAIGN_BENCHMARKS,
            workers=workers,
        )
        report = campaign.run_report
        k = len(CAMPAIGN_BENCHMARKS)
        assert report.total_chunks == report.completed == k
        counters = report.metrics["counters"]
        assert counters["simulator.traces_generated"] == k
        assert counters["simulator.batch.blocks"] == k
        _assert_campaigns_bitwise_equal(campaign, clean_campaign)

    def test_permanent_failure_names_chunk_in_report(
        self, resilience_scale, monkeypatch
    ):
        monkeypatch.setattr(
            campaign_module,
            "_simulate_chunk",
            _failing_on("mesa", RuntimeError("bug simulating mesa")),
        )
        with pytest.raises(ChunkFailure) as excinfo:
            run_campaign(
                Simulator(),
                scale=resilience_scale,
                benchmarks=CAMPAIGN_BENCHMARKS,
            )
        assert "chunk 2" in excinfo.value.report.failure
        assert "mesa" in excinfo.value.report.failure

    def test_kill_then_resume_bitwise_identical(
        self, resilience_scale, clean_campaign, tmp_path, monkeypatch
    ):
        """A run interrupted after two benchmarks has cached them, and
        rerunning it simulates only the third, bitwise-identical to an
        uninterrupted serial run."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with monkeypatch.context() as patch:
            patch.setattr(
                campaign_module,
                "_simulate_chunk",
                _failing_on("mesa", KeyboardInterrupt()),
            )
            with pytest.raises(KeyboardInterrupt):
                cached_campaign(
                    Simulator(),
                    scale=resilience_scale,
                    benchmarks=CAMPAIGN_BENCHMARKS,
                )
        for bench in CAMPAIGN_BENCHMARKS[:2]:
            assert list(tmp_path.glob(f"campaign-*-{bench}-*.json"))
        assert not list(tmp_path.glob("campaign-*-mesa-*.json"))

        mark = get_registry().snapshot()
        resumed = cached_campaign(
            Simulator(),
            scale=resilience_scale,
            benchmarks=CAMPAIGN_BENCHMARKS,
            workers=2,
        )
        _assert_campaigns_bitwise_equal(resumed, clean_campaign)
        # gzip and mcf load from the cache; only mesa is simulated
        cache = get_registry().delta(mark)["counters"]
        assert cache["artifacts.cache.hits"] == 2
        assert cache["artifacts.cache.misses"] == 1
        assert resumed.run_report.total_chunks == 1
