"""Fault-tolerant chunk execution: journal, retries, degradation, faults.

The expensive phases of the reproduction — simulating sampled designs
(:func:`~repro.harness.campaign.run_campaign`) and sweeping the
exploration space (:func:`~repro.harness.sweep.run_sweep`) — share one
execution shape: a list of independent *chunks* fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  This module makes
that fan-out durable:

- **Journal** — an append-only JSONL file records every completed
  chunk's payload (checksummed, fsync'd per line), so an interrupted
  run resumes from completed chunks instead of restarting.  A header
  fingerprint ties the journal to one exact task layout; stale or
  truncated journals are detected and discarded safely.
- **RetryPolicy** — bounded attempts with exponential backoff and
  *deterministic* jitter (hash of chunk index and attempt, never a
  random generator).  Failures are classified transient (broken pool,
  timeout, :class:`TransientWorkerError`) or permanent (deterministic
  exceptions); only transient failures are retried.
- **Graceful degradation** — when the worker pool breaks repeatedly,
  the remaining chunks run serially in-process instead of aborting.
- **Fault injection** — a :class:`FaultPlan` deterministically fails
  chunk N on attempt K with an exception, a worker kill, a hang, or a
  corrupted payload, threaded through the worker entrypoint so every
  recovery path above is testable without real crashes.

Chunks must be independent and their payloads JSON-representable (via
the ``encode``/``decode`` hooks when they carry arrays); results are
always delivered in task order, so callers observe output identical to
a serial, fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.metrics import isolated_registry, merge_snapshots
from ..obs.tracing import Stopwatch, get_tracer

logger = logging.getLogger(__name__)

#: Bump when the journal line format changes.
JOURNAL_VERSION = 1

#: Fault kinds a :class:`FaultPlan` may inject (see :class:`Fault`).
#: The first five fire inside the worker entrypoint on any backend; the
#: last three are lease-protocol faults interpreted by the distributed
#: work-stealing backend (:mod:`repro.harness.distributed`) and ignored
#: by the pool backend.
FAULT_KINDS = (
    "transient",
    "permanent",
    "kill",
    "hang",
    "corrupt",
    "lease_expiry",
    "zombie",
    "torn_write",
)

#: Fault kinds handled inside :func:`_run_chunk` itself.
_WORKER_FAULT_KINDS = ("transient", "permanent", "kill", "hang", "corrupt")


class ResilienceError(RuntimeError):
    """Raised for unusable resilience configurations or journals."""


class JournalFingerprintError(ResilienceError):
    """An explicit resume hit a journal bound to a different fingerprint.

    Raised instead of silently discarding the stale journal so a resume
    against the wrong campaign/sweep configuration fails loudly, naming
    both fingerprints (the CLI maps this to a one-line error, exit 2).
    """


class TransientWorkerError(RuntimeError):
    """A worker failure that is known to be safe to retry."""


class CorruptResultError(TransientWorkerError):
    """A chunk returned a payload that failed validation."""


class ChunkFailure(ResilienceError):
    """A chunk failed permanently or exhausted its retry budget.

    Carries the :class:`RunReport` accumulated so far as ``report`` so
    callers (and the CLI) can name the failing chunk and show what did
    complete — everything journaled before the failure remains
    resumable.
    """

    def __init__(self, message: str, report: Optional["RunReport"] = None):
        super().__init__(message)
        self.report = report


# -- fault injection -----------------------------------------------------------


@dataclass(frozen=True)
class Fault:
    """Deterministically fail one chunk on selected attempts.

    ``kind`` is one of :data:`FAULT_KINDS`: ``transient``/``permanent``
    raise in the worker, ``kill`` terminates the worker process (breaking
    the pool), ``hang`` blocks until the driver's chunk timeout fires,
    and ``corrupt`` truncates the returned payload.  ``attempts`` lists
    the 1-based attempt numbers that fire; an empty tuple fires on every
    attempt.
    """

    chunk: int
    kind: str
    attempts: Tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; choices are {FAULT_KINDS}"
            )
        object.__setattr__(self, "attempts", tuple(self.attempts))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults, keyed by chunk/attempt."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def fault_for(self, chunk: int, attempt: int) -> Optional[str]:
        """The fault kind to inject for this chunk attempt, or None."""
        for fault in self.faults:
            if fault.chunk == chunk and (
                not fault.attempts or attempt in fault.attempts
            ):
                return fault.kind
        return None


def _corrupt_payload(payload):
    """Worker-side ``corrupt`` fault: damage the payload detectably."""
    if isinstance(payload, list) and payload:
        return payload[:-1]
    return None


@dataclass
class _ChunkEnvelope:
    """What :func:`_run_chunk` ships back alongside the chunk payload.

    ``metrics`` is the chunk's :mod:`repro.obs` registry snapshot —
    captured in an isolated registry so it holds exactly this chunk's
    contribution wherever the chunk ran; ``wall_s``/``cpu_s`` are the
    chunk's own timings, replayed into the driver's trace as a
    ``resilience.chunk`` span.
    """

    payload: object
    metrics: Optional[dict] = None
    wall_s: float = 0.0
    cpu_s: float = 0.0


def _run_chunk(fn: Callable, args: tuple, fault_kind: Optional[str]):
    """Worker entrypoint: apply any injected fault, then run the chunk.

    This is the single choke point every chunk of every resilient run
    passes through, in-process or in a pool worker — which is what makes
    :class:`FaultPlan` able to exercise each recovery path for real.
    Successful chunks return a :class:`_ChunkEnvelope` wrapping the
    payload with the chunk's metrics snapshot and timings.
    """
    if fault_kind == "transient":
        raise TransientWorkerError("injected transient fault")
    if fault_kind == "permanent":
        raise RuntimeError("injected permanent fault")
    if fault_kind == "kill":
        os._exit(13)
    if fault_kind == "hang":
        while True:  # until the driver's chunk timeout terminates us
            time.sleep(0.05)
    with isolated_registry() as registry:
        with Stopwatch() as watch:
            result = fn(*args)
        snapshot = registry.snapshot()
    if fault_kind == "corrupt":
        result = _corrupt_payload(result)
    return _ChunkEnvelope(
        payload=result,
        metrics=snapshot,
        wall_s=watch.wall_s,
        cpu_s=watch.cpu_s,
    )


# -- retry policy --------------------------------------------------------------

#: Exception types retried by default; everything else is permanent.
DEFAULT_TRANSIENT_TYPES: Tuple[type, ...] = (
    BrokenProcessPool,
    FuturesTimeout,
    TimeoutError,
    TransientWorkerError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are classified, retried, timed out, and degraded.

    ``backoff_seconds`` grows exponentially with the attempt number and
    adds a deterministic jitter derived from a hash of the chunk index
    and attempt — reruns back off identically, and no random-number
    state is consumed.  ``chunk_timeout`` bounds a single attempt's wall
    time on the parallel path (a timed-out worker is terminated with the
    pool and the chunk retried).  After ``max_pool_restarts`` pool
    rebuilds, execution degrades to in-process serial for the remainder.
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.25
    chunk_timeout: Optional[float] = None
    max_pool_restarts: int = 2
    transient_types: Tuple[type, ...] = DEFAULT_TRANSIENT_TYPES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError("max_attempts must be positive")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ResilienceError(
                "backoff_base/backoff_factor/jitter must be >= 0 / >= 1 / >= 0"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ResilienceError("chunk_timeout must be positive or None")
        if self.max_pool_restarts < 0:
            raise ResilienceError("max_pool_restarts must be >= 0")

    def classify(self, error: BaseException) -> str:
        """``"transient"`` (retry) or ``"permanent"`` (abort)."""
        return (
            "transient"
            if isinstance(error, self.transient_types)
            else "permanent"
        )

    def backoff_seconds(self, chunk: int, attempt: int) -> float:
        """Delay before retrying ``chunk`` after its ``attempt``-th failure."""
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        digest = hashlib.sha256(f"{chunk}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / float(2**64)
        return base * (1.0 + self.jitter * unit)


@dataclass(frozen=True)
class DistributedConfig:
    """Knobs for the work-stealing backend (:mod:`~repro.harness.distributed`).

    ``run_dir`` is the shared directory workers coordinate through (lease
    files, journal shards, heartbeats); None derives one under the
    artifact cache from the run fingerprint.  ``spawn`` local worker
    processes are started by the driver — ``spawn=0`` means workers are
    attached externally with ``repro workers spawn``.  ``lease_ttl`` is
    how stale a lease's heartbeat must be before another worker may steal
    it; ``heartbeat_interval`` is how often owners refresh their leases;
    ``poll_interval`` paces idle claim scans.  ``wait_timeout`` bounds
    how long the driver waits for completion (None: forever).
    """

    run_dir: Optional[Path] = None
    spawn: int = 1
    lease_ttl: float = 10.0
    heartbeat_interval: float = 1.0
    poll_interval: float = 0.05
    wait_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.spawn < 0:
            raise ResilienceError("spawn must be >= 0")
        if self.lease_ttl <= 0 or self.heartbeat_interval <= 0:
            raise ResilienceError(
                "lease_ttl and heartbeat_interval must be positive"
            )
        if self.heartbeat_interval >= self.lease_ttl:
            raise ResilienceError(
                "heartbeat_interval must be smaller than lease_ttl, or "
                "healthy leases look stale and are stolen"
            )
        if self.poll_interval <= 0:
            raise ResilienceError("poll_interval must be positive")
        if self.wait_timeout is not None and self.wait_timeout <= 0:
            raise ResilienceError("wait_timeout must be positive or None")


#: Execution backends ``run_chunks`` can route a fan-out through.
BACKENDS = ("pool", "distributed")


@dataclass(frozen=True)
class ResilienceConfig:
    """Bundle threading the resilient executor through campaigns and sweeps.

    ``journal_path`` enables chunk journaling and resume; when None and
    ``resume`` is set, callers that own a cache key (``cached_campaign``,
    the sweep CLI) derive a path next to their artifact.  ``faults`` is
    the deterministic fault-injection schedule (tests and smoke runs
    only).  ``backend`` selects how chunks fan out: ``"pool"`` is the
    in-process driver with a ``ProcessPoolExecutor``; ``"distributed"``
    is the journal-coordinated work-stealing backend where independent
    worker processes (possibly on other hosts sharing ``distributed.run_dir``)
    claim chunks through lease files.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    journal_path: Optional[Path] = None
    resume: bool = False
    faults: Optional[FaultPlan] = None
    backend: str = "pool"
    distributed: Optional[DistributedConfig] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ResilienceError(
                f"unknown backend {self.backend!r}; choices are {BACKENDS}"
            )


# -- tasks and reports ---------------------------------------------------------


@dataclass(frozen=True)
class ChunkTask:
    """One unit of the fan-out: a picklable function call plus labels.

    ``size`` counts work units (e.g. design points) for progress
    accounting and payload validation; ``meta`` is an opaque caller
    label (the campaign uses ``(benchmark,)``) handed back through
    ``on_chunk`` callbacks.
    """

    index: int
    fn: Callable
    args: tuple
    size: int = 1
    meta: tuple = ()


@dataclass
class ChunkRecord:
    """Per-chunk outcome accounting inside a :class:`RunReport`."""

    index: int
    meta: tuple = ()
    status: str = "pending"  #: pending | completed | resumed | failed
    attempts: int = 0
    errors: Tuple[str, ...] = ()


@dataclass
class RunReport:
    """Structured outcome of one resilient run.

    ``completed`` counts chunks that finished this run plus chunks
    restored from the journal (``resumed``); ``retried`` counts chunks
    that needed more than one attempt; ``failure`` names the aborting
    chunk when the run raised :class:`ChunkFailure`.

    ``metrics`` is the merged :mod:`repro.obs` snapshot of every
    completed chunk's contribution — shipped back from pool workers in
    result envelopes, restored from the journal for resumed chunks, so
    the account covers the whole logical run with no double counting
    (failed attempts' metrics are discarded).  ``events`` lists the
    structured occurrences (``resilience.retry``, ``.pool_restart``,
    ``.degraded``, ``.resumed``, ``.chunk_failed``) that also land in
    the trace when tracing is active.
    """

    total_chunks: int
    completed: int = 0
    resumed: int = 0
    retried: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    elapsed_seconds: float = 0.0
    failure: Optional[str] = None
    chunks: List[ChunkRecord] = field(default_factory=list)
    metrics: Optional[dict] = None
    events: List[dict] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        parts = [f"chunks {self.completed}/{self.total_chunks}"]
        if self.resumed:
            parts.append(f"{self.resumed} resumed from journal")
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.pool_restarts:
            parts.append(f"{self.pool_restarts} pool restart(s)")
        if self.degraded:
            parts.append("degraded to serial")
        if self.failure:
            parts.append(f"FAILED ({self.failure})")
        parts.append(f"{self.elapsed_seconds:.1f}s")
        return "; ".join(parts)


# -- the journal ---------------------------------------------------------------


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _line_for(body: dict) -> bytes:
    canonical = _canonical(body)
    sha = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return (
        json.dumps(
            {"sha": sha, "body": body}, sort_keys=True, separators=(",", ":")
        )
        + "\n"
    ).encode("utf-8")


def append_record(path: Path, body: dict) -> None:
    """Durably append one checksummed record line to a journal file.

    A single ``O_APPEND`` write followed by an fsync: a crash mid-write
    leaves at most one truncated tail line, which
    :func:`read_journal_records` skips with a warning.  A file whose
    last byte is not a newline (a torn tail from an earlier crash) is
    sealed with one first, so the new record starts on its own line
    instead of extending the garbage.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        line = _line_for(body)
        size = os.fstat(fd).st_size
        if size:
            with open(path, "rb") as reader:
                reader.seek(size - 1)
                if reader.read(1) != b"\n":
                    line = b"\n" + line
        os.write(fd, line)
        os.fsync(fd)
    finally:
        os.close(fd)


def read_journal_records(path: Path) -> Tuple[List[dict], List[dict]]:
    """Parse a checksummed JSONL journal, tolerating a torn final record.

    Returns ``(bodies, warnings)``.  A final line truncated mid-write by
    a crash is skipped with a structured ``journal_torn_tail`` warning
    (never an exception).  Undecodable *interior* lines — a sealed tear
    from an earlier crash, with appends continuing after it — are
    skipped with a ``journal_corrupt_line`` warning; records beyond them
    stay trustworthy because every line carries its own checksum, and a
    line whose checksum does not match its body is skipped with a
    ``journal_bad_checksum`` warning.  Each warning is a dict with
    ``kind``, ``path``, and ``line`` (1-based) keys, ready to land in
    ``RunReport.events``.
    """
    bodies: List[dict] = []
    warnings: List[dict] = []

    def warn(kind: str, lineno: int) -> None:
        warnings.append({"kind": kind, "path": str(path), "line": lineno})

    try:
        lines = path.read_text().splitlines()
    except OSError:
        return bodies, warnings
    for lineno, raw in enumerate(lines, start=1):
        torn = False
        body = None
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            torn = True
        else:
            body = record.get("body") if isinstance(record, dict) else None
            if not isinstance(body, dict):
                torn = True
        if torn:
            if lineno == len(lines):
                warn("journal_torn_tail", lineno)
            else:
                warn("journal_corrupt_line", lineno)
            continue
        sha = hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()[:16]
        if record.get("sha") != sha:
            warn("journal_bad_checksum", lineno)
            continue
        bodies.append(body)
    for warning in warnings:
        logger.warning(
            "journal %s: %s at line %d",
            path,
            warning["kind"],
            warning["line"],
        )
    return bodies, warnings


class Journal:
    """Append-only, checksummed JSONL record of completed chunks.

    Line 1 is a header binding the file to one ``fingerprint`` (a digest
    of everything that determines the task layout and its results); each
    further line records one completed chunk's payload with a checksum.
    Lines are written with a single ``O_APPEND`` write and fsync'd, so a
    mid-write interrupt leaves at most one truncated tail line — which
    loading tolerates (the tail is dropped, completed chunks survive).
    """

    def __init__(
        self,
        path: Path,
        fingerprint: str,
        completed: Dict[int, object],
        attempts: Dict[int, int],
        metrics: Optional[Dict[int, dict]] = None,
        warnings: Optional[List[dict]] = None,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.completed = completed
        self.attempts = attempts
        self.metrics = metrics if metrics is not None else {}
        #: Structured read anomalies (torn tail, bad checksums) collected
        #: while loading; the executor replays them as report events.
        self.warnings = warnings if warnings is not None else []

    @classmethod
    def open(cls, path, fingerprint: str, strict: bool = False) -> "Journal":
        """Open or create a journal bound to ``fingerprint``.

        An existing file with a matching header is loaded (its completed
        chunks become resumable); a torn final record is skipped with a
        structured warning, never an error.  A stale, mismatched, or
        unreadable file is discarded with a warning and the journal
        starts fresh — unless ``strict`` is set (an explicit ``--resume``),
        in which case a readable header with the *wrong* fingerprint
        raises :class:`JournalFingerprintError` naming both fingerprints
        instead of silently restarting the run.
        """
        path = Path(path)
        completed: Dict[int, object] = {}
        attempts: Dict[int, int] = {}
        metrics: Dict[int, dict] = {}
        warnings: List[dict] = []
        if path.exists():
            loaded = cls._read(path, fingerprint, strict=strict)
            if loaded is None:
                logger.warning(
                    "discarding stale or corrupt journal %s", path
                )
                path.unlink()
            else:
                completed, attempts, metrics, warnings = loaded
        if not path.exists():
            header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
            cls._append(path, header)
        return cls(path, fingerprint, completed, attempts, metrics, warnings)

    @staticmethod
    def _read(path: Path, fingerprint: str, strict: bool = False):
        """Parse a journal; None when the header does not match."""
        completed: Dict[int, object] = {}
        attempts: Dict[int, int] = {}
        metrics: Dict[int, dict] = {}
        entries, warnings = read_journal_records(path)
        if not entries:
            return None
        header = entries[0]
        if header.get("kind") != "header":
            return None
        if (
            strict
            and header.get("version") == JOURNAL_VERSION
            and header.get("fingerprint") != fingerprint
        ):
            raise JournalFingerprintError(
                f"journal {path} was written for fingerprint "
                f"{header.get('fingerprint')}, but the current run's "
                f"fingerprint is {fingerprint}; the configuration changed "
                "— delete the journal or rerun without --resume"
            )
        if (
            header.get("version") != JOURNAL_VERSION
            or header.get("fingerprint") != fingerprint
        ):
            return None
        for body in entries[1:]:
            if body.get("kind") != "chunk" or "index" not in body:
                continue
            index = int(body["index"])
            completed[index] = body.get("payload")
            attempts[index] = int(body.get("attempts", 1))
            if body.get("metrics") is not None:
                metrics[index] = body["metrics"]
        return completed, attempts, metrics, warnings

    @staticmethod
    def _append(path: Path, body: dict) -> None:
        append_record(path, body)

    def record(
        self, index: int, attempts: int, payload, metrics: Optional[dict] = None
    ) -> None:
        """Durably record one completed chunk (atomic append + fsync).

        ``metrics`` (the chunk's obs snapshot) rides along so a resumed
        run restores the chunk's metrics contribution exactly once —
        the field is optional, keeping older journals readable.
        """
        body = {
            "kind": "chunk",
            "index": index,
            "attempts": attempts,
            "payload": payload,
        }
        if metrics is not None:
            body["metrics"] = metrics
        self._append(self.path, body)
        self.completed[index] = payload
        self.attempts[index] = attempts
        if metrics is not None:
            self.metrics[index] = metrics

    def discard(self) -> None:
        """Delete the journal file (the run it covered completed)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            logger.debug("journal %s already removed", self.path)
        self.completed = {}
        self.attempts = {}
        self.metrics = {}


# -- the resilient executor ----------------------------------------------------


def _shutdown_pool(executor: Optional[ProcessPoolExecutor], terminate: bool):
    """Shut a pool down; ``terminate`` also kills worker processes.

    Termination is how hung (or abandoned) workers are reaped after a
    chunk timeout or an abort — ``shutdown`` alone would wait on them
    forever.
    """
    if executor is None:
        return
    if not terminate:
        executor.shutdown(wait=True)
        return
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(5.0)


class _ChunkRunner:
    """One resilient run: scheduling loop, retry state, report assembly."""

    def __init__(
        self,
        tasks: Sequence[ChunkTask],
        workers: int,
        policy: RetryPolicy,
        journal: Optional[Journal],
        faults: Optional[FaultPlan],
        validate: Optional[Callable],
        on_chunk: Optional[Callable],
        encode: Optional[Callable],
        decode: Optional[Callable],
        keep_results: bool,
    ):
        indexes = [task.index for task in tasks]
        if len(set(indexes)) != len(indexes):
            raise ResilienceError("chunk task indexes must be unique")
        self.tasks = list(tasks)
        self.workers = max(1, workers)
        self.policy = policy
        self.journal = journal
        self.faults = faults
        self.validate = validate
        self.on_chunk = on_chunk
        self.encode = encode
        self.decode = decode
        self.keep_results = keep_results
        self.records = {
            task.index: ChunkRecord(index=task.index, meta=task.meta)
            for task in self.tasks
        }
        self.report = RunReport(
            total_chunks=len(self.tasks),
            chunks=[self.records[task.index] for task in self.tasks],
        )
        self.results: Dict[int, object] = {}
        self._done: Dict[int, bool] = {}

    # -- outcome bookkeeping ----------------------------------------------

    def _fault_for(self, task, attempt, in_process):
        if self.faults is None:
            return None
        kind = self.faults.fault_for(task.index, attempt)
        if kind in ("kill", "hang") and in_process:
            # Cannot kill or hang the driver itself; surface the fault
            # as a retryable worker error instead.
            return "transient"
        return kind

    def _meta_tag(self, task: ChunkTask) -> str:
        return f" {task.meta}" if task.meta else ""

    def _event(self, name: str, **attrs) -> None:
        """Record a structured occurrence in the report and the trace."""
        self.report.events.append({"name": name, "attrs": attrs})
        get_tracer().event(name, **attrs)

    @staticmethod
    def _as_envelope(result) -> _ChunkEnvelope:
        """Normalize a chunk result (envelopes come from `_run_chunk`)."""
        if isinstance(result, _ChunkEnvelope):
            return result
        return _ChunkEnvelope(payload=result)

    def _complete(
        self, task: ChunkTask, attempt: int, envelope: _ChunkEnvelope
    ) -> None:
        payload = envelope.payload
        record = self.records[task.index]
        record.status = "completed"
        record.attempts = attempt
        if attempt > 1:
            self.report.retried += 1
        self.report.completed += 1
        self._done[task.index] = True
        if envelope.metrics is not None:
            # Merge only after validation passed: a corrupt or retried
            # attempt's metrics never reach the report.
            self.report.metrics = merge_snapshots(
                self.report.metrics, envelope.metrics
            )
        get_tracer().record_span(
            "resilience.chunk",
            envelope.wall_s,
            envelope.cpu_s,
            chunk=task.index,
            attempts=attempt,
            meta=[str(m) for m in task.meta],
        )
        if self.journal is not None:
            encoded = self.encode(payload) if self.encode else payload
            self.journal.record(
                task.index, attempt, encoded, metrics=envelope.metrics
            )
        if self.keep_results:
            self.results[task.index] = payload
        if self.on_chunk is not None:
            self.on_chunk(task, record, payload)

    def _record_failure(self, task, attempt, error) -> None:
        """Account one failed attempt; raises when the chunk is lost."""
        record = self.records[task.index]
        record.attempts = attempt
        record.errors += (
            f"attempt {attempt}: {type(error).__name__}: {error}",
        )
        if self.policy.classify(error) == "permanent":
            self._abort(task, record, f"permanent failure: {error}")
        if attempt >= self.policy.max_attempts:
            self._abort(
                task,
                record,
                f"exhausted {self.policy.max_attempts} attempts: {error}",
            )
        self._event(
            "resilience.retry",
            chunk=task.index,
            attempt=attempt,
            error=f"{type(error).__name__}: {error}",
        )
        logger.info(
            "retrying chunk %d%s after attempt %d: %s",
            task.index,
            self._meta_tag(task),
            attempt,
            error,
        )

    def _abort(self, task, record, reason) -> None:
        record.status = "failed"
        message = f"chunk {task.index}{self._meta_tag(task)} failed: {reason}"
        self.report.failure = message
        self._event(
            "resilience.chunk_failed", chunk=task.index, reason=reason
        )
        raise ChunkFailure(message, self.report)

    def _check(self, task: ChunkTask, payload) -> None:
        if self.validate is not None:
            self.validate(task, payload)

    # -- resume ------------------------------------------------------------

    def _resume_from_journal(self) -> None:
        if self.journal is None:
            return
        for warning in self.journal.warnings:
            self._event("resilience.journal_warning", **warning)
        for task in self.tasks:
            if task.index not in self.journal.completed:
                continue
            payload = self.journal.completed[task.index]
            if self.decode is not None:
                payload = self.decode(payload)
            record = self.records[task.index]
            record.status = "resumed"
            record.attempts = self.journal.attempts.get(task.index, 1)
            self.report.resumed += 1
            self.report.completed += 1
            self._done[task.index] = True
            journal_metrics = self.journal.metrics.get(task.index)
            if journal_metrics is not None:
                # The chunk's metrics were journaled when it first
                # completed; restoring them here (and nowhere else)
                # keeps the merged account exact across resumes.
                self.report.metrics = merge_snapshots(
                    self.report.metrics, journal_metrics
                )
            if self.keep_results:
                self.results[task.index] = payload
            if self.on_chunk is not None:
                self.on_chunk(task, record, payload)
        if self.report.resumed:
            self._event("resilience.resumed", chunks=self.report.resumed)

    # -- serial execution --------------------------------------------------

    def _run_serial(self, items: Sequence[Tuple[ChunkTask, int]]) -> None:
        """Run ``(task, attempts_already_charged)`` pairs in-process."""
        for task, attempts_done in sorted(items, key=lambda i: i[0].index):
            attempt = attempts_done
            while True:
                attempt += 1
                fault = self._fault_for(task, attempt, in_process=True)
                try:
                    envelope = self._as_envelope(
                        _run_chunk(task.fn, task.args, fault)
                    )
                    self._check(task, envelope.payload)
                except ChunkFailure:
                    raise
                except Exception as error:
                    self._record_failure(task, attempt, error)
                    delay = self.policy.backoff_seconds(task.index, attempt)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self._complete(task, attempt, envelope)
                break

    # -- parallel execution ------------------------------------------------

    def _restart_pool(self, executor, inflight, queue):
        """Kill a broken/hung pool; requeue in-flight chunks uncharged.

        Returns a fresh pool, or None once the restart budget is spent —
        the caller then degrades to serial execution.
        """
        for task, attempt, _ in inflight.values():
            queue.append((task, attempt - 1))
        inflight.clear()
        _shutdown_pool(executor, terminate=True)
        self.report.pool_restarts += 1
        self._event(
            "resilience.pool_restart",
            count=self.report.pool_restarts,
            budget=self.policy.max_pool_restarts,
        )
        if self.report.pool_restarts > self.policy.max_pool_restarts:
            return None
        logger.info(
            "restarting worker pool (%d/%d)",
            self.report.pool_restarts,
            self.policy.max_pool_restarts,
        )
        return ProcessPoolExecutor(max_workers=self.workers)

    def _run_parallel(self, pending: Sequence[Tuple[ChunkTask, int]]) -> None:
        queue: Deque[Tuple[ChunkTask, int]] = deque(pending)
        waiting: List[Tuple[float, ChunkTask, int]] = []
        inflight: Dict[object, Tuple[ChunkTask, int, Optional[float]]] = {}
        executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.workers
        )
        aborted = True
        try:
            while queue or waiting or inflight:
                now = time.monotonic()
                ready = [item for item in waiting if item[0] <= now]
                waiting = [item for item in waiting if item[0] > now]
                for _, task, attempts_done in ready:
                    queue.append((task, attempts_done))

                pool_failed = False
                while queue and len(inflight) < self.workers:
                    task, attempts_done = queue.popleft()
                    attempt = attempts_done + 1
                    fault = self._fault_for(task, attempt, in_process=False)
                    try:
                        future = executor.submit(
                            _run_chunk, task.fn, task.args, fault
                        )
                    except BrokenProcessPool:
                        queue.appendleft((task, attempts_done))
                        pool_failed = True
                        break
                    deadline = (
                        now + self.policy.chunk_timeout
                        if self.policy.chunk_timeout is not None
                        else None
                    )
                    inflight[future] = (task, attempt, deadline)

                if not pool_failed and inflight:
                    deadlines = [
                        deadline
                        for _, _, deadline in inflight.values()
                        if deadline is not None
                    ]
                    ready_times = [ready_at for ready_at, _, _ in waiting]
                    horizon = min(deadlines + ready_times, default=None)
                    timeout = (
                        None
                        if horizon is None
                        else max(0.0, horizon - time.monotonic())
                    )
                    done, _ = wait(
                        set(inflight),
                        timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        task, attempt, _ = inflight.pop(future)
                        try:
                            envelope = self._as_envelope(future.result())
                            self._check(task, envelope.payload)
                        except BrokenProcessPool as error:
                            pool_failed = True
                            self._record_failure(task, attempt, error)
                            waiting.append(
                                (
                                    time.monotonic()
                                    + self.policy.backoff_seconds(
                                        task.index, attempt
                                    ),
                                    task,
                                    attempt,
                                )
                            )
                        except Exception as error:
                            self._record_failure(task, attempt, error)
                            waiting.append(
                                (
                                    time.monotonic()
                                    + self.policy.backoff_seconds(
                                        task.index, attempt
                                    ),
                                    task,
                                    attempt,
                                )
                            )
                        else:
                            self._complete(task, attempt, envelope)
                    now = time.monotonic()
                    for future, (task, attempt, deadline) in list(
                        inflight.items()
                    ):
                        if deadline is not None and now >= deadline:
                            del inflight[future]
                            timeout_error = FuturesTimeout(
                                f"chunk {task.index} exceeded chunk_timeout="
                                f"{self.policy.chunk_timeout}s"
                            )
                            self._record_failure(
                                task, attempt, timeout_error
                            )
                            waiting.append(
                                (
                                    now
                                    + self.policy.backoff_seconds(
                                        task.index, attempt
                                    ),
                                    task,
                                    attempt,
                                )
                            )
                            pool_failed = True
                elif not pool_failed and waiting:
                    # Nothing running; wait out the nearest backoff.
                    nearest = min(ready_at for ready_at, _, _ in waiting)
                    delay = max(0.0, nearest - time.monotonic())
                    if delay > 0:
                        time.sleep(delay)

                if pool_failed:
                    executor = self._restart_pool(executor, inflight, queue)
                    if executor is None:
                        self.report.degraded = True
                        remaining = list(queue) + [
                            (task, attempts_done)
                            for _, task, attempts_done in waiting
                        ]
                        self._event(
                            "resilience.degraded",
                            pool_restarts=self.report.pool_restarts,
                            remaining_chunks=len(remaining),
                        )
                        logger.warning(
                            "worker pool broke %d times; running remaining "
                            "%d chunk(s) serially in-process",
                            self.report.pool_restarts,
                            len(remaining),
                        )
                        self._run_serial(remaining)
                        break
            aborted = False
        except ChunkFailure:
            raise
        finally:
            _shutdown_pool(executor, terminate=aborted)

    # -- entry point -------------------------------------------------------

    def run(self) -> Tuple[Optional[List[object]], RunReport]:
        watch = Stopwatch().start()
        with get_tracer().span(
            "resilience.run",
            chunks=len(self.tasks),
            workers=self.workers,
        ) as root:
            try:
                self._resume_from_journal()
                pending = [
                    (task, 0)
                    for task in self.tasks
                    if not self._done.get(task.index)
                ]
                if pending:
                    if self.workers > 1:
                        self._run_parallel(pending)
                    else:
                        self._run_serial(pending)
            finally:
                self.report.elapsed_seconds = watch.stop().wall_s
                root.set_attr("completed", self.report.completed)
                root.set_attr("resumed", self.report.resumed)
                root.set_attr("retried", self.report.retried)
                root.set_attr("pool_restarts", self.report.pool_restarts)
                root.set_attr("degraded", self.report.degraded)
        ordered = (
            [self.results[task.index] for task in self.tasks]
            if self.keep_results
            else None
        )
        return ordered, self.report


def run_chunks(
    tasks: Sequence[ChunkTask],
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[Journal] = None,
    faults: Optional[FaultPlan] = None,
    validate: Optional[Callable] = None,
    on_chunk: Optional[Callable] = None,
    encode: Optional[Callable] = None,
    decode: Optional[Callable] = None,
    keep_results: bool = True,
    backend: str = "pool",
    distributed: Optional[DistributedConfig] = None,
    fingerprint: Optional[str] = None,
) -> Tuple[Optional[List[object]], RunReport]:
    """Execute independent chunk tasks with retries, journaling, degradation.

    Returns ``(results, report)`` where ``results`` lists each task's
    payload in task order (or None with ``keep_results=False``, for
    streaming consumers that take payloads via ``on_chunk``).  Semantics:

    - ``workers > 1`` fans chunks over a process pool (at most
      ``workers`` in flight); ``workers == 1`` runs in-process.  Either
      way results are identical to a fault-free serial run.
    - Failures are classified by ``policy``: transient ones retry up to
      ``policy.max_attempts`` with deterministic backoff, permanent ones
      abort immediately.  Aborts raise :class:`ChunkFailure` carrying
      the report; chunks journaled before the abort stay resumable.
    - A broken pool is rebuilt up to ``policy.max_pool_restarts`` times,
      then execution degrades to in-process serial for the remainder.
    - ``journal`` restores completed chunks before running anything
      (``on_chunk`` fires for them with status ``"resumed"``) and
      durably records each newly completed chunk (through ``encode``;
      restored payloads pass through ``decode``).
    - ``validate(task, payload)`` runs on every fresh payload; raise
      :class:`CorruptResultError` to classify a bad payload as a
      retryable failure.
    - ``on_chunk(task, record, payload)`` fires as chunks complete (in
      completion order, not task order).
    - Each chunk runs inside an isolated :mod:`repro.obs` metrics
      registry; the snapshots ship back with the payloads and merge into
      ``report.metrics`` (journaled chunks restore theirs on resume, so
      the account is exact with no double counting).  Retries, pool
      restarts, and degradation land in ``report.events`` and — when
      tracing is configured — in the trace.
    - ``backend="distributed"`` routes the fan-out through the
      journal-coordinated work-stealing backend
      (:mod:`repro.harness.distributed`): independent worker processes
      sharing ``distributed.run_dir`` claim chunks via lease files and
      append results to per-worker shards, which merge deterministically
      into the same ``(results, report)`` a serial run produces.
      Requires ``fingerprint`` (binding the shared run directory to one
      exact task layout); ``workers`` is ignored in favor of
      ``distributed.spawn``.
    """
    if backend not in BACKENDS:
        raise ResilienceError(
            f"unknown backend {backend!r}; choices are {BACKENDS}"
        )
    if backend == "distributed":
        from .distributed import run_distributed_chunks

        if fingerprint is None:
            raise ResilienceError(
                "backend='distributed' requires a run fingerprint"
            )
        return run_distributed_chunks(
            tasks=tasks,
            policy=policy or RetryPolicy(),
            journal=journal,
            faults=faults,
            validate=validate,
            on_chunk=on_chunk,
            encode=encode,
            decode=decode,
            keep_results=keep_results,
            config=distributed or DistributedConfig(),
            fingerprint=fingerprint,
        )
    runner = _ChunkRunner(
        tasks=tasks,
        workers=workers,
        policy=policy or RetryPolicy(),
        journal=journal,
        faults=faults,
        validate=validate,
        on_chunk=on_chunk,
        encode=encode,
        decode=decode,
        keep_results=keep_results,
    )
    return runner.run()


def fingerprint_payload(payload: dict) -> str:
    """Stable short digest of a JSON-representable description.

    Used to bind a :class:`Journal` to one exact task layout: any change
    to the digested description (scale knobs, space shape, chunking,
    model coefficients) makes existing journal entries unresumable.
    """
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
