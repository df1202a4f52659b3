"""Fault-tolerant chunk execution: retries, degradation, faults.

The expensive phase of the reproduction — simulating sampled designs
(:func:`~repro.harness.campaign.run_campaign`) — runs as a list of
independent *chunks*, one per benchmark, in-process or fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  This module makes
that fan-out robust:

- **RetryPolicy** — bounded attempts per chunk and a per-attempt
  timeout.  Failures are classified transient (broken pool, timeout,
  :class:`TransientWorkerError`) or permanent (deterministic
  exceptions); only transient failures are retried, and a retried
  chunk goes straight back on the queue.
- **Graceful degradation** — when the worker pool breaks repeatedly,
  the remaining chunks run serially in-process instead of aborting.
- **Fault injection** — a :class:`FaultPlan` deterministically fails
  chunk N on attempt K with an exception, a worker kill, a hang, or a
  corrupted payload, threaded through the worker entrypoint so every
  recovery path above is testable without real crashes.

Chunks must be independent; results are always delivered in task
order, so callers observe output identical to a serial, fault-free run.
Durability belongs to the caller: ``on_chunk`` fires as each chunk
completes, and the campaign persists that benchmark's artifact there
(:mod:`repro.harness.artifacts`), so an interrupted run loses only the
chunks still in flight.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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

#: Fault kinds a :class:`FaultPlan` may inject (see :class:`Fault`); each
#: fires inside the worker entrypoint, :func:`_run_chunk`.
FAULT_KINDS = ("transient", "permanent", "kill", "hang", "corrupt")


class ResilienceError(RuntimeError):
    """Raised for unusable resilience configurations."""


class TransientWorkerError(RuntimeError):
    """A worker failure that is known to be safe to retry."""


class CorruptResultError(TransientWorkerError):
    """A chunk returned a payload that failed validation."""


class ChunkFailure(ResilienceError):
    """A chunk failed permanently or exhausted its retry budget.

    Carries the :class:`RunReport` accumulated so far as ``report`` so
    callers (and the CLI) can name the failing chunk and show what did
    complete.  Chunks that completed before the failure have already
    been handed to ``on_chunk`` (a campaign has persisted them).
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

#: Exception types that are retried; everything else is permanent.
_TRANSIENT_TYPES: Tuple[type, ...] = (
    BrokenProcessPool,
    FuturesTimeout,
    TimeoutError,
    TransientWorkerError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are classified, retried, timed out, and degraded.

    A chunk gets at most ``max_attempts`` attempts; a transient failure
    retries at once, with no delay.  ``chunk_timeout`` bounds a single
    attempt's wall time on the parallel path (a timed-out worker is
    terminated with the pool and the chunk retried).  After
    ``max_pool_restarts`` pool rebuilds, execution degrades to
    in-process serial for the remainder.
    """

    max_attempts: int = 3
    chunk_timeout: Optional[float] = None
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError("max_attempts must be positive")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ResilienceError("chunk_timeout must be positive or None")
        if self.max_pool_restarts < 0:
            raise ResilienceError("max_pool_restarts must be >= 0")

    def classify(self, error: BaseException) -> str:
        """``"transient"`` (retry) or ``"permanent"`` (abort)."""
        return (
            "transient" if isinstance(error, _TRANSIENT_TYPES) else "permanent"
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Bundle threading the resilient executor through a campaign.

    ``faults`` is the deterministic fault-injection schedule (tests and
    smoke runs only).
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    resume: bool = False  #: unread; benchmarks/e2e/workload.py still passes it
    faults: Optional[FaultPlan] = None


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
    status: str = "pending"  #: pending | completed | failed
    attempts: int = 0
    errors: Tuple[str, ...] = ()


@dataclass
class RunReport:
    """Structured outcome of one resilient run.

    ``completed`` counts chunks that finished; ``retried`` counts chunks
    that needed more than one attempt; ``failure`` names the aborting
    chunk when the run raised :class:`ChunkFailure`.

    ``metrics`` is the merged :mod:`repro.obs` snapshot of every
    completed chunk's contribution — shipped back from pool workers in
    result envelopes — with no double counting (failed attempts'
    metrics are discarded).  ``events`` lists the structured occurrences
    (``resilience.retry``, ``.pool_restart``, ``.degraded``,
    ``.chunk_failed``) that also land in the trace when tracing is
    active.
    """

    total_chunks: int
    completed: int = 0
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
        faults: Optional[FaultPlan],
        validate: Optional[Callable],
        on_chunk: Optional[Callable],
    ):
        indexes = [task.index for task in tasks]
        if len(set(indexes)) != len(indexes):
            raise ResilienceError("chunk task indexes must be unique")
        self.tasks = list(tasks)
        self.workers = max(1, workers)
        self.policy = policy
        self.faults = faults
        self.validate = validate
        self.on_chunk = on_chunk
        self.records = {
            task.index: ChunkRecord(index=task.index, meta=task.meta)
            for task in self.tasks
        }
        self.report = RunReport(
            total_chunks=len(self.tasks),
            chunks=[self.records[task.index] for task in self.tasks],
        )
        self.results: Dict[int, object] = {}

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

    # -- serial execution --------------------------------------------------

    def _run_serial(self, items: Sequence[Tuple[ChunkTask, int]]) -> None:
        """Run ``(task, attempts_already_charged)`` pairs in-process."""
        for task, attempts_done in sorted(items, key=lambda i: i[0].index):
            attempt = attempts_done
            while True:
                attempt += 1
                fault = self._fault_for(task, attempt, in_process=True)
                try:
                    envelope = _run_chunk(task.fn, task.args, fault)
                    self._check(task, envelope.payload)
                except ChunkFailure:
                    raise
                except Exception as error:
                    self._record_failure(task, attempt, error)
                    continue
                self._complete(task, attempt, envelope)
                break

    # -- parallel execution ------------------------------------------------

    def _retry(self, queue, task, attempt, error) -> None:
        """Charge a failed attempt; put the chunk back on the queue."""
        self._record_failure(task, attempt, error)
        queue.append((task, attempt))

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
        inflight: Dict[object, Tuple[ChunkTask, int, Optional[float]]] = {}
        executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.workers
        )
        aborted = True
        try:
            while queue or inflight:
                now = time.monotonic()
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
                    timeout = (
                        max(0.0, min(deadlines) - time.monotonic())
                        if deadlines
                        else None
                    )
                    done, _ = wait(
                        set(inflight),
                        timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        task, attempt, _ = inflight.pop(future)
                        try:
                            envelope = future.result()
                            self._check(task, envelope.payload)
                        except Exception as error:
                            if isinstance(error, BrokenProcessPool):
                                pool_failed = True
                            self._retry(queue, task, attempt, error)
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
                            self._retry(queue, task, attempt, timeout_error)
                            pool_failed = True

                if pool_failed:
                    executor = self._restart_pool(executor, inflight, queue)
                    if executor is None:
                        self.report.degraded = True
                        remaining = list(queue)
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

    def run(self) -> Tuple[List[object], RunReport]:
        watch = Stopwatch().start()
        with get_tracer().span(
            "resilience.run",
            chunks=len(self.tasks),
            workers=self.workers,
        ) as root:
            try:
                pending = [(task, 0) for task in self.tasks]
                if self.workers > 1 and pending:
                    self._run_parallel(pending)
                else:
                    self._run_serial(pending)
            finally:
                self.report.elapsed_seconds = watch.stop().wall_s
                root.set_attr("completed", self.report.completed)
                root.set_attr("retried", self.report.retried)
                root.set_attr("pool_restarts", self.report.pool_restarts)
                root.set_attr("degraded", self.report.degraded)
        return [self.results[task.index] for task in self.tasks], self.report


def run_chunks(
    tasks: Sequence[ChunkTask],
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    validate: Optional[Callable] = None,
    on_chunk: Optional[Callable] = None,
) -> Tuple[List[object], RunReport]:
    """Execute independent chunk tasks with retries and degradation.

    Returns ``(results, report)`` where ``results`` lists each task's
    payload in task order.  Semantics:

    - ``workers > 1`` fans chunks over a process pool (at most
      ``workers`` in flight); ``workers == 1`` runs in-process.  Either
      way results are identical to a fault-free serial run.
    - Failures are classified by ``policy``: transient ones retry up to
      ``policy.max_attempts`` attempts, permanent ones
      abort immediately.  Aborts raise :class:`ChunkFailure` carrying
      the report.
    - A broken pool is rebuilt up to ``policy.max_pool_restarts`` times,
      then execution degrades to in-process serial for the remainder.
    - ``validate(task, payload)`` runs on every fresh payload; raise
      :class:`CorruptResultError` to classify a bad payload as a
      retryable failure.
    - ``on_chunk(task, record, payload)`` fires as chunks complete (in
      completion order, not task order), only after ``validate``
      passed; it is where a caller persists each chunk's result.
    - Each chunk runs inside an isolated :mod:`repro.obs` metrics
      registry; the snapshots ship back with the payloads and merge into
      ``report.metrics`` with no double counting.  Retries, pool
      restarts, and degradation land in ``report.events`` and — when
      tracing is configured — in the trace.
    """
    runner = _ChunkRunner(
        tasks=tasks,
        workers=workers,
        policy=policy or RetryPolicy(),
        faults=faults,
        validate=validate,
        on_chunk=on_chunk,
    )
    return runner.run()

