"""Tests for the fault-tolerant execution layer.

Every recovery path — retry, timeout, pool restart, serial degradation,
rerun after a kill — is exercised through the deterministic
fault-injection hook, never with real crashes or sleeps in test code.
"""

import numpy as np
import pytest

from repro.harness import cached_campaign, get_scale, run_campaign
from repro.harness.resilience import (
    ChunkFailure,
    ChunkTask,
    CorruptResultError,
    Fault,
    FaultPlan,
    ResilienceConfig,
    ResilienceError,
    RetryPolicy,
    TransientWorkerError,
    run_chunks,
)
from repro.simulator import Simulator


def _double_chunk(values):
    """Picklable test workload: double each value."""
    return [v * 2 for v in values]


def _tasks(n_chunks=4, chunk_len=3):
    return [
        ChunkTask(
            index=i,
            fn=_double_chunk,
            args=([i * 10 + j for j in range(chunk_len)],),
            size=chunk_len,
            meta=("chunk", i),
        )
        for i in range(n_chunks)
    ]


def _expected(tasks):
    return [_double_chunk(*task.args) for task in tasks]


def _validate_length(task, payload):
    if not isinstance(payload, list) or len(payload) != task.size:
        raise CorruptResultError(f"chunk {task.index} payload truncated")


class TestRetryPolicy:
    def test_classification(self):
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        policy = RetryPolicy()
        assert policy.classify(BrokenProcessPool("dead")) == "transient"
        assert policy.classify(FuturesTimeout("slow")) == "transient"
        assert policy.classify(TimeoutError("slow")) == "transient"
        assert policy.classify(TransientWorkerError("flaky")) == "transient"
        assert policy.classify(RuntimeError("bug")) == "permanent"
        assert policy.classify(ValueError("bad input")) == "permanent"

    def test_rejects_bad_configuration(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(chunk_timeout=0.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(max_pool_restarts=-1)


class TestFaultPlan:
    def test_fires_on_listed_attempts_only(self):
        plan = FaultPlan([Fault(chunk=2, kind="transient", attempts=(1, 3))])
        assert plan.fault_for(2, 1) == "transient"
        assert plan.fault_for(2, 2) is None
        assert plan.fault_for(2, 3) == "transient"
        assert plan.fault_for(1, 1) is None

    def test_empty_attempts_fires_always(self):
        plan = FaultPlan([Fault(chunk=0, kind="permanent", attempts=())])
        for attempt in (1, 2, 5):
            assert plan.fault_for(0, attempt) == "permanent"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ResilienceError):
            Fault(chunk=0, kind="meltdown")


class TestRunChunksSerial:
    def test_clean_run(self):
        tasks = _tasks()
        results, report = run_chunks(tasks)
        assert results == _expected(tasks)
        assert report.completed == report.total_chunks == len(tasks)
        assert report.retried == 0 and report.failure is None

    def test_transient_fault_retries(self):
        tasks = _tasks()
        faults = FaultPlan([Fault(chunk=1, kind="transient", attempts=(1,))])
        results, report = run_chunks(tasks, faults=faults)
        assert results == _expected(tasks)
        assert report.retried == 1
        assert report.chunks[1].attempts == 2
        assert "TransientWorkerError" in report.chunks[1].errors[0]

    def test_permanent_fault_aborts_with_named_chunk(self):
        faults = FaultPlan([Fault(chunk=2, kind="permanent")])
        with pytest.raises(ChunkFailure) as excinfo:
            run_chunks(_tasks(), faults=faults)
        assert "chunk 2" in str(excinfo.value)
        report = excinfo.value.report
        assert report.failure is not None and "chunk 2" in report.failure
        assert report.chunks[2].status == "failed"
        # chunks before the failure completed and are accounted
        assert report.completed == 2

    def test_exhausted_retries_abort(self):
        faults = FaultPlan([Fault(chunk=0, kind="transient", attempts=())])
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(ChunkFailure, match="exhausted 2 attempts"):
            run_chunks(_tasks(), policy=policy, faults=faults)

    def test_kill_and_hang_map_to_transient_in_process(self):
        # in-process execution cannot kill or hang the driver; both kinds
        # surface as retryable worker errors instead
        faults = FaultPlan(
            [
                Fault(chunk=0, kind="kill", attempts=(1,)),
                Fault(chunk=1, kind="hang", attempts=(1,)),
            ]
        )
        tasks = _tasks()
        results, report = run_chunks(tasks, faults=faults)
        assert results == _expected(tasks)
        assert report.retried == 2

    def test_corrupt_payload_caught_by_validator_and_retried(self):
        faults = FaultPlan([Fault(chunk=3, kind="corrupt", attempts=(1,))])
        tasks = _tasks()
        results, report = run_chunks(
            tasks, faults=faults, validate=_validate_length
        )
        assert results == _expected(tasks)
        assert report.retried == 1
        assert "CorruptResultError" in report.chunks[3].errors[0]
        retries = [
            e for e in report.events if e["name"] == "resilience.retry"
        ]
        assert len(retries) == 1
        assert retries[0]["attrs"]["chunk"] == 3

    def test_corrupt_payload_without_validator_passes_through(self):
        # the validator is the contract: without one, corruption is silent
        faults = FaultPlan([Fault(chunk=0, kind="corrupt", attempts=(1,))])
        tasks = _tasks(n_chunks=1)
        results, _ = run_chunks(tasks, faults=faults)
        assert len(results[0]) == tasks[0].size - 1


class TestRunChunksParallel:
    def test_matches_serial_under_transient_faults(self):
        tasks = _tasks(n_chunks=6)
        faults = FaultPlan(
            [
                Fault(chunk=0, kind="transient", attempts=(1,)),
                Fault(chunk=4, kind="transient", attempts=(1,)),
            ]
        )
        results, report = run_chunks(tasks, workers=2, faults=faults)
        assert results == _expected(tasks)
        assert report.retried == 2

    def test_killed_worker_restarts_pool(self):
        tasks = _tasks(n_chunks=5)
        faults = FaultPlan([Fault(chunk=1, kind="kill", attempts=(1,))])
        results, report = run_chunks(tasks, workers=2, faults=faults)
        assert results == _expected(tasks)
        assert report.pool_restarts >= 1
        restarts = [
            e for e in report.events if e["name"] == "resilience.pool_restart"
        ]
        assert len(restarts) == report.pool_restarts

    def test_repeated_pool_breakage_degrades_to_serial(self):
        tasks = _tasks(n_chunks=4)
        faults = FaultPlan([Fault(chunk=2, kind="kill", attempts=(1,))])
        policy = RetryPolicy(max_pool_restarts=0)
        results, report = run_chunks(
            tasks, workers=2, policy=policy, faults=faults
        )
        assert results == _expected(tasks)
        assert report.degraded
        degraded = [
            e for e in report.events if e["name"] == "resilience.degraded"
        ]
        assert len(degraded) == 1
        assert degraded[0]["attrs"]["remaining_chunks"] >= 1

    def test_hang_hits_chunk_timeout_and_retries(self):
        tasks = _tasks(n_chunks=3)
        faults = FaultPlan([Fault(chunk=0, kind="hang", attempts=(1,))])
        policy = RetryPolicy(chunk_timeout=0.5)
        results, report = run_chunks(
            tasks, workers=2, policy=policy, faults=faults
        )
        assert results == _expected(tasks)
        assert report.chunks[0].attempts == 2
        assert any("chunk_timeout" in e for e in report.chunks[0].errors)

    def test_out_of_order_completion_returns_in_task_order(self):
        seen = []
        tasks = _tasks(n_chunks=8, chunk_len=2)
        results, _ = run_chunks(
            tasks,
            workers=4,
            on_chunk=lambda task, record, payload: seen.append(task.index),
        )
        assert results == _expected(tasks)
        assert sorted(seen) == list(range(8))


@pytest.fixture(scope="module")
def resilience_scale():
    return get_scale("ci").with_overrides(
        name="resilience-test", trace_length=500, n_train=6, n_validation=3
    )


#: A campaign is one chunk per benchmark, so the fault-injection campaigns
#: below run three to give every injected fault a real chunk to land on.
CAMPAIGN_BENCHMARKS = ["gzip", "mcf", "mesa"]


@pytest.fixture(scope="module")
def clean_campaign(resilience_scale):
    return run_campaign(
        Simulator(), scale=resilience_scale, benchmarks=CAMPAIGN_BENCHMARKS
    )


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
            resilience=ResilienceConfig(),
        )
        report = campaign.run_report
        k = len(CAMPAIGN_BENCHMARKS)
        assert report.total_chunks == report.completed == k
        counters = report.metrics["counters"]
        assert counters["simulator.traces_generated"] == k
        assert counters["simulator.batch.blocks"] == k
        _assert_campaigns_bitwise_equal(campaign, clean_campaign)

    def test_fault_injected_parallel_matches_serial(
        self, resilience_scale, clean_campaign
    ):
        """Worker exceptions on the first attempt of two chunks must not
        perturb the assembled datasets (acceptance criterion)."""
        faults = FaultPlan(
            [
                Fault(chunk=0, kind="transient", attempts=(1,)),
                Fault(chunk=2, kind="transient", attempts=(1,)),
            ]
        )
        campaign = run_campaign(
            Simulator(),
            scale=resilience_scale,
            benchmarks=CAMPAIGN_BENCHMARKS,
            workers=2,
            resilience=ResilienceConfig(faults=faults),
        )
        _assert_campaigns_bitwise_equal(campaign, clean_campaign)
        assert campaign.run_report.retried == 2
        assert campaign.run_report.failure is None

    def test_permanent_failure_names_chunk_in_report(self, resilience_scale):
        faults = FaultPlan([Fault(chunk=2, kind="permanent")])
        with pytest.raises(ChunkFailure) as excinfo:
            run_campaign(
                Simulator(),
                scale=resilience_scale,
                benchmarks=CAMPAIGN_BENCHMARKS,
                resilience=ResilienceConfig(faults=faults),
            )
        assert "chunk 2" in excinfo.value.report.failure
        assert "mesa" in excinfo.value.report.failure

    def test_kill_then_resume_bitwise_identical(
        self, resilience_scale, clean_campaign, tmp_path, monkeypatch
    ):
        """The acceptance scenario: a chunk killed mid-run aborts the
        campaign, and rerunning it loads the benchmarks that finished
        and completes with results bitwise-identical to an uninterrupted
        serial run."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Two attempts: a chunk in flight when the pool dies still
        # finishes in-process after the run degrades to serial.
        kill = ResilienceConfig(
            policy=RetryPolicy(max_attempts=2, max_pool_restarts=0),
            faults=FaultPlan([Fault(chunk=2, kind="kill", attempts=())]),
        )
        with pytest.raises(ChunkFailure):
            cached_campaign(
                Simulator(),
                scale=resilience_scale,
                benchmarks=CAMPAIGN_BENCHMARKS,
                workers=2,
                resilience=kill,
            )
        for bench in CAMPAIGN_BENCHMARKS[:2]:
            assert list(tmp_path.glob(f"campaign-*-{bench}-*.json"))

        resumed = cached_campaign(
            Simulator(),
            scale=resilience_scale,
            benchmarks=CAMPAIGN_BENCHMARKS,
            workers=2,
        )
        _assert_campaigns_bitwise_equal(resumed, clean_campaign)
        assert resumed.run_report.total_chunks == 1
