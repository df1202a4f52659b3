"""Chunk execution for the simulation campaign: in-process or over a pool.

The expensive phase of the reproduction — simulating sampled designs
(:func:`~repro.harness.campaign.run_campaign`) — runs as independent
*chunks*, one per benchmark, in-process or over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Results are delivered
in task order, identical to a serial run.  :func:`run_chunks` follows the
failure model of ``docs/RESILIENCE.md``: a chunk that raises or fails
validation aborts the run (the simulation is deterministic, so a retry
would fail the same way), a pool broken by a killed worker finishes
in-process, and any exception terminates the pool.  Durability belongs
to the caller: ``on_chunk`` fires as each chunk completes, and the
campaign persists that benchmark's artifact there
(:mod:`repro.harness.artifacts`), so a rerun simulates only what is
missing.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import isolated_registry, merge_snapshots
from ..obs.tracing import Stopwatch, get_tracer

logger = logging.getLogger(__name__)


class ResilienceError(RuntimeError):
    """Raised for unusable chunk task lists."""


class CorruptResultError(ResilienceError):
    """A chunk returned a payload that failed validation."""


class ChunkFailure(ResilienceError):
    """A chunk raised or returned a payload that failed validation.

    Carries the :class:`RunReport` accumulated so far as ``report`` so
    callers (and the CLI) can name the failing chunk and show what did
    complete.  Chunks that completed before the failure have already
    been handed to ``on_chunk`` (a campaign has persisted them).
    """

    def __init__(self, message: str, report: Optional["RunReport"] = None):
        super().__init__(message)
        self.report = report


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


def _run_chunk(fn: Callable, args: tuple) -> _ChunkEnvelope:
    """Worker entrypoint: run one chunk in an isolated metrics registry.

    Every chunk passes through here, in-process or in a pool worker, and
    comes back as a :class:`_ChunkEnvelope` wrapping the payload with the
    chunk's metrics snapshot and timings.
    """
    with isolated_registry() as registry:
        with Stopwatch() as watch:
            result = fn(*args)
        snapshot = registry.snapshot()
    return _ChunkEnvelope(result, snapshot, watch.wall_s, watch.cpu_s)


@dataclass(frozen=True)
class ResilienceConfig:
    """Unread: ``benchmarks/e2e/workload.py:107`` builds one until ROADMAP item 8."""

    resume: bool = False


# -- tasks and reports ---------------------------------------------------------


@dataclass(frozen=True)
class ChunkTask:
    """One unit of the fan-out: a picklable function call plus labels.

    ``size`` counts work units (e.g. design points) for payload
    validation; ``meta`` is an opaque caller label (the campaign uses
    ``(benchmark,)``) handed back through ``on_chunk`` callbacks.
    """

    index: int
    fn: Callable
    args: tuple
    size: int = 1
    meta: tuple = ()


@dataclass
class RunReport:
    """Structured outcome of one run of :func:`run_chunks`.

    ``completed`` counts chunks that finished; ``degraded`` says the
    pool broke and the unfinished chunks ran in-process; ``failure``
    names the aborting chunk when the run raised :class:`ChunkFailure`.

    ``metrics`` is the merged :mod:`repro.obs` snapshot of every
    completed chunk's contribution — shipped back from pool workers in
    result envelopes — with no double counting: a rejected payload's
    metrics are discarded.  Degradation and failures are trace events
    (``resilience.degraded``, ``resilience.chunk_failed``).
    """

    total_chunks: int
    completed: int = 0
    #: ``retried`` and ``pool_restarts`` are always 0; ``benchmarks/e2e/
    #: workload.py:260-261`` reads them until ROADMAP item 8 drops both.
    retried: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    elapsed_seconds: float = 0.0
    failure: Optional[str] = None
    metrics: Optional[dict] = None

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        parts = [f"chunks {self.completed}/{self.total_chunks}"]
        if self.degraded:
            parts.append("degraded to serial")
        if self.failure:
            parts.append(f"FAILED ({self.failure})")
        parts.append(f"{self.elapsed_seconds:.1f}s")
        return "; ".join(parts)


# -- the executor --------------------------------------------------------------


def _terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Shut a pool down, kill its worker processes and reap them all.

    ``shutdown`` alone would wait for the chunks in flight; after an
    abort or an interrupt nothing may outlive the driver.  SIGKILL cannot
    be ignored, so every join returns.  The executor's manager thread
    also joins the workers it sees die; joining it first means no worker
    is left half-reaped by that thread when this returns.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    manager = getattr(executor, "_executor_manager_thread", None)
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()
    if manager is not None:
        manager.join()
    for process in processes:
        process.join()


class _ChunkRunner:
    """One run: the serial and pool loops and report assembly."""

    def __init__(
        self,
        tasks: Sequence[ChunkTask],
        workers: int,
        validate: Optional[Callable],
        on_chunk: Optional[Callable],
    ):
        indexes = [task.index for task in tasks]
        if len(set(indexes)) != len(indexes):
            raise ResilienceError("chunk task indexes must be unique")
        self.tasks = list(tasks)
        self.workers = max(1, workers)
        self.validate = validate
        self.on_chunk = on_chunk
        self.report = RunReport(total_chunks=len(self.tasks))
        self.results: Dict[int, object] = {}

    def _abort(self, task: ChunkTask, error: Exception) -> None:
        tag = f" {task.meta}" if task.meta else ""
        reason = f"{type(error).__name__}: {error}"
        message = f"chunk {task.index}{tag} failed: {reason}"
        self.report.failure = message
        get_tracer().event(
            "resilience.chunk_failed", chunk=task.index, reason=reason
        )
        raise ChunkFailure(message, self.report) from error

    def _deliver(self, task: ChunkTask, envelope: _ChunkEnvelope) -> None:
        """Validate one chunk's payload, then account and hand it on."""
        payload = envelope.payload
        if self.validate is not None:
            try:
                self.validate(task, payload)
            except Exception as error:
                self._abort(task, error)
        self.report.completed += 1
        # Merged only after validation passed: a rejected payload's
        # metrics never reach the report.
        self.report.metrics = merge_snapshots(
            self.report.metrics, envelope.metrics
        )
        get_tracer().record_span(
            "resilience.chunk",
            envelope.wall_s,
            envelope.cpu_s,
            chunk=task.index,
            meta=[str(m) for m in task.meta],
        )
        self.results[task.index] = payload
        if self.on_chunk is not None:
            self.on_chunk(task, payload)

    def _run_serial(self, tasks: Sequence[ChunkTask]) -> None:
        for task in tasks:
            try:
                envelope = _run_chunk(task.fn, task.args)
            except Exception as error:
                self._abort(task, error)
            self._deliver(task, envelope)

    def _run_parallel(self) -> None:
        executor = ProcessPoolExecutor(max_workers=self.workers)
        broken = False
        try:
            futures = {
                executor.submit(_run_chunk, task.fn, task.args): task
                for task in self.tasks
            }
            for future in as_completed(futures):
                task = futures[future]
                try:
                    envelope = future.result()
                except BrokenProcessPool:
                    broken = True
                    break
                except Exception as error:
                    self._abort(task, error)
                self._deliver(task, envelope)
        except BaseException:
            _terminate_pool(executor)
            raise
        if not broken:
            executor.shutdown(wait=True)
            return
        # A worker died (OOM kill, signal): finish in-process instead.
        _terminate_pool(executor)
        remaining = [t for t in self.tasks if t.index not in self.results]
        self.report.degraded = True
        get_tracer().event("resilience.degraded", remaining_chunks=len(remaining))
        logger.warning(
            "worker pool broke; running %d chunk(s) in-process", len(remaining)
        )
        self._run_serial(remaining)

    def run(self) -> Tuple[List[object], RunReport]:
        watch = Stopwatch().start()
        with get_tracer().span(
            "resilience.run",
            chunks=len(self.tasks),
            workers=self.workers,
        ) as root:
            try:
                if self.workers > 1 and self.tasks:
                    self._run_parallel()
                else:
                    self._run_serial(self.tasks)
            finally:
                self.report.elapsed_seconds = watch.stop().wall_s
                root.set_attr("completed", self.report.completed)
                root.set_attr("degraded", self.report.degraded)
        return [self.results[task.index] for task in self.tasks], self.report


def run_chunks(
    tasks: Sequence[ChunkTask],
    workers: int = 1,
    validate: Optional[Callable] = None,
    on_chunk: Optional[Callable] = None,
) -> Tuple[List[object], RunReport]:
    """Execute independent chunk tasks, in-process or over a pool.

    Returns ``(results, report)`` where ``results`` lists each task's
    payload in task order.  Semantics:

    - ``workers > 1`` fans chunks over a process pool of ``workers``
      processes; ``workers == 1`` runs in-process.
    - A chunk that raises, or whose payload ``validate(task, payload)``
      rejects, aborts the run with :class:`ChunkFailure`.
    - A broken pool (a worker killed by the OS) is not rebuilt: every
      unfinished chunk runs in-process and ``report.degraded`` is set.
    - Any exception, ``KeyboardInterrupt`` included, terminates the pool
      before it propagates.
    - ``on_chunk(task, payload)`` fires in completion order, only after
      ``validate`` passed; a caller persists each result there.
    - Each chunk's :mod:`repro.obs` metrics merge into ``report.metrics``
      once; degradation and failures are events in the trace, when
      tracing is configured.

    ``benchmarks/e2e/trace_layers.py:51,238`` read this function's name
    and the ``resilience.chunk`` spans; renaming either breaks its layers.
    """
    return _ChunkRunner(tasks, workers, validate, on_chunk).run()
