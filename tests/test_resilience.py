"""Tests for the fault-tolerant execution layer.

Every recovery path — retry, timeout, pool restart, serial degradation,
journal resume — is exercised through the deterministic fault-injection
hook, never with real crashes or sleeps in test code.
"""

import json

import numpy as np
import pytest

from repro.harness import get_scale, run_campaign
from repro.harness.resilience import (
    ChunkFailure,
    ChunkTask,
    CorruptResultError,
    Fault,
    FaultPlan,
    Journal,
    JournalFingerprintError,
    ResilienceConfig,
    ResilienceError,
    RetryPolicy,
    TransientWorkerError,
    append_record,
    read_journal_records,
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


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        journal = Journal.open(path, "fp-1")
        journal.record(0, attempts=1, payload=[1, 2])
        journal.record(2, attempts=3, payload=[5, 6])

        reopened = Journal.open(path, "fp-1")
        assert reopened.completed == {0: [1, 2], 2: [5, 6]}
        assert reopened.attempts == {0: 1, 2: 3}

    def test_fingerprint_mismatch_discards(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        journal = Journal.open(path, "fp-old")
        journal.record(0, attempts=1, payload=[1])

        reopened = Journal.open(path, "fp-new")
        assert reopened.completed == {}
        # the file was recreated with the new fingerprint
        assert Journal.open(path, "fp-new").completed == {}

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        journal = Journal.open(path, "fp")
        journal.record(0, attempts=1, payload=[1])
        with open(path, "a") as handle:
            handle.write('{"sha": "abcd", "body": {"kind": "chu')  # interrupt

        reopened = Journal.open(path, "fp")
        assert reopened.completed == {0: [1]}

    def test_checksum_mismatch_skipped(self, tmp_path, caplog):
        path = tmp_path / "run.journal.jsonl"
        journal = Journal.open(path, "fp")
        journal.record(0, attempts=1, payload=[1])
        tampered = {
            "sha": "0" * 16,
            "body": {"kind": "chunk", "index": 1, "payload": [9]},
        }
        with open(path, "a") as handle:
            handle.write(json.dumps(tampered) + "\n")

        with caplog.at_level("WARNING"):
            reopened = Journal.open(path, "fp")
        assert reopened.completed == {0: [1]}
        assert any("checksum" in r.message for r in caplog.records)


class TestTornTailEveryOffset:
    """A crash can cut the final journal record at *any* byte.

    The tolerant reader must, for every possible truncation point of the
    last record, return exactly the intact records with a structured
    ``journal_torn_tail`` warning — never an exception, never a partial
    or corrupted body.
    """

    def _journal(self, tmp_path, n_records=3):
        path = tmp_path / "torn.journal.jsonl"
        for i in range(n_records):
            append_record(
                path,
                {"kind": "chunk", "index": i, "payload": [i, i * 2]},
            )
        return path

    def test_truncation_at_every_byte_of_last_record(self, tmp_path):
        path = self._journal(tmp_path)
        data = path.read_bytes()
        intact = data[: data.rfind(b"\n", 0, len(data) - 1) + 1]
        expected, clean_warnings = read_journal_records(path)
        assert clean_warnings == []
        assert [b["index"] for b in expected] == [0, 1, 2]

        for cut in range(len(intact), len(data)):
            path.write_bytes(data[:cut])
            bodies, warnings = read_journal_records(path)
            if cut in (len(intact), len(data) - 1):
                # Cut exactly at the record boundary (nothing of the
                # last record remains) or only the trailing newline is
                # missing (the record is bytewise complete): no tear.
                expected_tail = [0, 1] if cut == len(intact) else [0, 1, 2]
                assert [b["index"] for b in bodies] == expected_tail
                assert warnings == []
                continue
            assert [b["index"] for b in bodies] == [0, 1], (
                f"wrong records after truncating at byte {cut}"
            )
            assert len(warnings) == 1, f"no warning at byte {cut}"
            warning = warnings[0]
            assert warning["kind"] in (
                "journal_torn_tail",
                "journal_bad_checksum",
            )
            assert warning["path"] == str(path)
            assert warning["line"] == 3

    def test_torn_tail_recovers_on_append(self, tmp_path):
        path = self._journal(tmp_path, n_records=2)
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear the second record
        bodies, warnings = read_journal_records(path)
        assert [b["index"] for b in bodies] == [0]
        assert warnings[0]["kind"] in (
            "journal_torn_tail",
            "journal_bad_checksum",
        )
        # The journal stays appendable: the torn line is superseded by a
        # rewritten record on the next line.
        append_record(path, {"kind": "chunk", "index": 1, "payload": [1]})
        bodies, _ = read_journal_records(path)
        assert [b["index"] for b in bodies] == [0, 1]

    def test_merged_tear_swallows_next_record(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        # A tear that ate record 1's newline merges it with record 2
        # into one undecodable line: both are lost, with a warning —
        # record 0 survives.
        path.write_bytes(lines[0] + lines[1][:-10] + lines[2])
        bodies, warnings = read_journal_records(path)
        assert [b["index"] for b in bodies] == [0]
        assert warnings
        assert warnings[0]["line"] == 2

    def test_sealed_tear_keeps_later_records(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        # A sealed interior tear (garbage line with its own newline, as
        # append_record leaves after repairing a torn tail): the damage
        # is skipped, but later checksummed records stay trusted.
        path.write_bytes(lines[0] + lines[1][:-10] + b"\n" + lines[2])
        bodies, warnings = read_journal_records(path)
        assert [b["index"] for b in bodies] == [0, 2]
        assert warnings[0]["kind"] == "journal_corrupt_line"
        assert warnings[0]["line"] == 2


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


class TestJournalResume:
    def test_resume_after_abort_skips_completed_chunks(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        tasks = _tasks(n_chunks=5)
        faults = FaultPlan([Fault(chunk=3, kind="permanent")])

        with pytest.raises(ChunkFailure):
            run_chunks(tasks, journal=Journal.open(path, "fp"), faults=faults)
        assert path.exists()

        journal = Journal.open(path, "fp")
        assert set(journal.completed) == {0, 1, 2}

        statuses = []
        results, report = run_chunks(
            tasks,
            journal=journal,
            on_chunk=lambda task, record, payload: statuses.append(
                record.status
            ),
        )
        assert results == _expected(tasks)
        assert report.resumed == 3
        assert statuses.count("resumed") == 3
        assert report.completed == 5

    def test_resumed_results_identical_to_clean_run(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        tasks = _tasks(n_chunks=4)
        clean, _ = run_chunks(tasks)

        with pytest.raises(ChunkFailure):
            run_chunks(
                tasks,
                journal=Journal.open(path, "fp"),
                faults=FaultPlan([Fault(chunk=2, kind="permanent")]),
            )
        resumed, report = run_chunks(tasks, journal=Journal.open(path, "fp"))
        assert resumed == clean
        assert report.resumed == 2


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
        """A chunk is one benchmark's whole point list: one trace and,
        with ``batch_size=None``, one kernel block per benchmark."""
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
        self, resilience_scale, clean_campaign, tmp_path
    ):
        """The acceptance scenario: a chunk killed mid-run aborts the
        campaign, and resuming from the journal completes with results
        bitwise-identical to an uninterrupted serial run."""
        journal_path = tmp_path / "campaign.journal.jsonl"
        kill = ResilienceConfig(
            policy=RetryPolicy(max_attempts=1, max_pool_restarts=0),
            journal_path=journal_path,
            faults=FaultPlan([Fault(chunk=2, kind="kill", attempts=())]),
        )
        with pytest.raises(ChunkFailure):
            run_campaign(
                Simulator(),
                scale=resilience_scale,
                benchmarks=CAMPAIGN_BENCHMARKS,
                workers=2,
                resilience=kill,
            )
        assert journal_path.exists()

        resumed = run_campaign(
            Simulator(),
            scale=resilience_scale,
            benchmarks=CAMPAIGN_BENCHMARKS,
            workers=2,
            resilience=ResilienceConfig(
                journal_path=journal_path, resume=True
            ),
        )
        _assert_campaigns_bitwise_equal(resumed, clean_campaign)
        assert resumed.run_report.resumed >= 1
        # success removes the journal
        assert not journal_path.exists()

    def test_journal_ignored_across_layout_changes(
        self, resilience_scale, tmp_path
    ):
        """A journal written for one campaign shape must not leak results
        into a differently-shaped campaign: an explicit resume fails
        loudly naming both fingerprints, and a non-resume run discards
        the stale journal and restarts."""
        journal_path = tmp_path / "campaign.journal.jsonl"
        with pytest.raises(ChunkFailure):
            run_campaign(
                Simulator(),
                scale=resilience_scale,
                benchmarks=CAMPAIGN_BENCHMARKS,
                resilience=ResilienceConfig(
                    policy=RetryPolicy(max_attempts=1),
                    journal_path=journal_path,
                    faults=FaultPlan([Fault(chunk=2, kind="permanent")]),
                ),
            )
        other_scale = resilience_scale.with_overrides(
            name="resilience-other", n_train=7
        )
        with pytest.raises(JournalFingerprintError) as excinfo:
            run_campaign(
                Simulator(),
                scale=other_scale,
                benchmarks=CAMPAIGN_BENCHMARKS,
                resilience=ResilienceConfig(
                    journal_path=journal_path, resume=True
                ),
            )
        # The one-line error names both fingerprints (16 hex chars each).
        assert str(excinfo.value).count("fingerprint") >= 2
        campaign = run_campaign(
            Simulator(),
            scale=other_scale,
            benchmarks=CAMPAIGN_BENCHMARKS,
            resilience=ResilienceConfig(journal_path=journal_path),
        )
        assert campaign.run_report.resumed == 0
        assert len(campaign.train_points) == 7


    def test_journal_from_per_split_layout_is_not_resumed(
        self, resilience_scale, clean_campaign, tmp_path
    ):
        """A journal written when a campaign was several chunks per
        (benchmark, split) carries other chunk sizes in its fingerprint:
        an explicit resume refuses it, and a plain run discards it."""
        from repro.designspace import sampling_space
        from repro.harness.campaign import _campaign_fingerprint

        simulator = Simulator()
        n_points = resilience_scale.n_train + resilience_scale.n_validation
        # Eight chunks per split of at most 6 points: one point per chunk.
        old_fingerprint = _campaign_fingerprint(
            resilience_scale,
            sampling_space(),
            CAMPAIGN_BENCHMARKS,
            [1] * (n_points * len(CAMPAIGN_BENCHMARKS)),
        )
        journal_path = tmp_path / "campaign.journal.jsonl"
        Journal.open(journal_path, old_fingerprint).record(
            0, attempts=1, payload=[[0.0, 0.0]]
        )
        with pytest.raises(JournalFingerprintError):
            run_campaign(
                simulator,
                scale=resilience_scale,
                benchmarks=CAMPAIGN_BENCHMARKS,
                resilience=ResilienceConfig(
                    journal_path=journal_path, resume=True
                ),
            )
        campaign = run_campaign(
            simulator,
            scale=resilience_scale,
            benchmarks=CAMPAIGN_BENCHMARKS,
            resilience=ResilienceConfig(journal_path=journal_path),
        )
        assert campaign.run_report.resumed == 0
        _assert_campaigns_bitwise_equal(campaign, clean_campaign)
