"""Simulation campaigns (Section 2.3's protocol).

A campaign samples designs uniformly at random from the Table 1 space,
simulates every sampled design on every benchmark, and assembles training
and validation datasets — the inputs to model fitting and Figure 1.

The unit of work is one benchmark: every sampled design (train and
validation together) replayed through the batched timing kernel on that
benchmark's trace, one block by default.  The serial path runs the units
in a loop; pass ``workers > 1`` to spread them over processes (each
worker rebuilds its deterministic trace, so results are bit-identical to
a serial run).  Parallel runs go through :mod:`repro.harness.resilience`,
one chunk per benchmark: chunks are retried on transient failures,
optionally journaled to disk for checkpoint/resume, and the run degrades
to in-process execution when the worker pool breaks repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..designspace import DesignPoint, DesignSpace, sample_uar, sampling_space
from ..obs.tracing import get_tracer
from ..regression import FittedModel, fit_ols, performance_spec, power_spec
from ..simulator import Simulator
from ..workloads import BENCHMARK_NAMES, get_profile
from .dataset import Dataset
from .resilience import (
    ChunkTask,
    CorruptResultError,
    Journal,
    ResilienceConfig,
    RunReport,
    fingerprint_payload,
    run_chunks,
)
from .scale import ScalePreset, get_scale

@dataclass
class Campaign:
    """Everything a study context needs from the simulation phase."""

    space: DesignSpace
    scale: ScalePreset
    benchmarks: tuple
    train_points: List[DesignPoint]
    validation_points: List[DesignPoint]
    train: Dict[str, Dataset] = field(default_factory=dict)
    validation: Dict[str, Dataset] = field(default_factory=dict)
    #: Execution accounting when the run went through the resilient
    #: executor (retries, resumes, degradation); None on the serial path.
    run_report: Optional[RunReport] = None

    def dataset(self, benchmark: str, split: str = "train") -> Dataset:
        if split not in ("train", "validation"):
            raise ValueError(
                f"unknown split {split!r}; choices are 'train'/'validation'"
            )
        table = self.train if split == "train" else self.validation
        try:
            return table[benchmark]
        except KeyError:
            raise KeyError(
                f"no {split} data for {benchmark!r}; have {sorted(table)}"
            ) from None


def _simulate_points(
    simulator: Simulator,
    space: DesignSpace,
    benchmark: str,
    trace_length: int,
    seed: int,
    points: List[DesignPoint],
    batch_size: Optional[int] = None,
    on_block: Optional[Callable[[int], None]] = None,
) -> List[Tuple[float, float]]:
    """Simulate ``points`` on one benchmark's trace; returns (bips, watts).

    The one way a campaign simulates, on the serial path and in every
    chunk worker: the trace is replayed through the batched timing kernel
    once per block of up to ``batch_size`` configs (``None``: one block).
    Results are bit-identical to a per-point scalar loop for every batch
    size, so ``batch_size`` stays out of the campaign fingerprint and
    journals remain portable across batch sizes.  ``on_block`` receives
    the cumulative point count after each block.
    """
    trace = simulator.trace_for(get_profile(benchmark), trace_length, seed=seed)
    results = simulator.simulate_batch(
        space, points, trace, batch_size=batch_size, on_block=on_block
    )
    return [(r.bips, float(r.watts)) for r in results]


def _simulate_chunk(
    space: DesignSpace,
    benchmark: str,
    trace_length: int,
    seed: int,
    memory_mode: str,
    warm: bool,
    points: List[DesignPoint],
    batch_size: Optional[int] = None,
) -> List[Tuple[float, float]]:
    """Worker: simulate ``points`` for one benchmark; returns (bips, watts).

    Runs in a separate process: rebuilds the deterministic trace and a
    fresh simulator, so outputs are identical to an in-process run.
    """
    return _simulate_points(
        Simulator(memory_mode=memory_mode, warm=warm),
        space,
        benchmark,
        trace_length,
        seed,
        points,
        batch_size,
    )


def _dataset(
    benchmark: str,
    space: DesignSpace,
    points: Sequence[DesignPoint],
    pairs: Sequence[Tuple[float, float]],
) -> Dataset:
    """One split's dataset from order-aligned (bips, watts) pairs."""
    return Dataset(
        benchmark=benchmark,
        space=space,
        points=list(points),
        metrics={
            "bips": np.array([float(p[0]) for p in pairs]),
            "watts": np.array([float(p[1]) for p in pairs]),
        },
    )


def _assemble(
    campaign: Campaign, benchmark: str, pairs: Sequence[Tuple[float, float]]
) -> None:
    """Split one benchmark's pairs over train + validation at ``n_train``."""
    n_train = len(campaign.train_points)
    campaign.train[benchmark] = _dataset(
        benchmark, campaign.space, campaign.train_points, pairs[:n_train]
    )
    campaign.validation[benchmark] = _dataset(
        benchmark, campaign.space, campaign.validation_points, pairs[n_train:]
    )


def _split_progress(progress, benchmark: str, splits) -> Callable[[int], None]:
    """Turn cumulative progress over the concatenated splits into the
    per-split ``(benchmark, split, done, total)`` stream.

    A split is reported when a block advances it, so each split's counts
    are cumulative, increasing, and end at the split's size.
    """
    reported: Dict[str, int] = {}

    def on_block(done: int) -> None:
        offset = 0
        for split, split_points in splits:
            total = len(split_points)
            count = min(max(done - offset, 0), total)
            if count > reported.get(split, 0):
                reported[split] = count
                progress(benchmark, split, count, total)
            offset += total

    return on_block


def _campaign_fingerprint(
    scale: ScalePreset,
    space: DesignSpace,
    names: Sequence[str],
    memory_mode: str,
    warm: bool,
    chunk_sizes: Sequence[int],
) -> str:
    """Digest of everything that determines the chunk layout and results."""
    return fingerprint_payload(
        {
            "kind": "campaign",
            "scale": {
                "trace_length": scale.trace_length,
                "n_train": scale.n_train,
                "n_validation": scale.n_validation,
                "seed": scale.seed,
            },
            "space": {
                "name": space.name,
                "parameters": [
                    [p.name, list(p.values)] for p in space.parameters
                ],
            },
            "benchmarks": list(names),
            "memory_mode": memory_mode,
            "warm": warm,
            "chunk_sizes": list(chunk_sizes),
        }
    )


def _validate_campaign_payload(task: ChunkTask, payload) -> None:
    """Reject worker payloads that are not ``task.size`` (bips, watts) pairs."""
    if not isinstance(payload, list) or len(payload) != task.size:
        got = len(payload) if isinstance(payload, list) else type(payload)
        raise CorruptResultError(
            f"chunk {task.index} returned {got} results, expected {task.size}"
        )
    for pair in payload:
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise CorruptResultError(
                f"chunk {task.index} returned a malformed result pair"
            )


def _run_campaign_resilient(
    campaign: Campaign,
    simulator: Simulator,
    points: List[DesignPoint],
    splits,
    progress,
    workers: int,
    resilience: ResilienceConfig,
    batch_size: Optional[int] = None,
) -> Campaign:
    """The chunked path: fan out, retry, journal, and assemble datasets.

    One chunk per benchmark, covering the same points as one serial
    iteration.  Parallelism therefore stops at the benchmark count, which
    still wins at every width: each kernel call carries a fixed
    per-instruction cost, so splitting a benchmark into smaller chunks
    multiplies that cost instead of sharing the work.
    """
    scale, space, names = campaign.scale, campaign.space, campaign.benchmarks
    tasks = [
        ChunkTask(
            index=index,
            fn=_simulate_chunk,
            args=(
                space,
                benchmark,
                scale.trace_length,
                scale.seed,
                simulator.memory_mode,
                simulator.warm,
                points,
                batch_size,
            ),
            size=len(points),
            meta=(benchmark,),
        )
        for index, benchmark in enumerate(names)
    ]

    fingerprint = _campaign_fingerprint(
        scale, space, names, simulator.memory_mode, simulator.warm,
        [task.size for task in tasks],
    )
    journal = None
    if resilience.journal_path is not None:
        if not resilience.resume and resilience.journal_path.exists():
            resilience.journal_path.unlink()
        journal = Journal.open(
            resilience.journal_path, fingerprint, strict=resilience.resume
        )

    def on_chunk(task, record, payload):
        if progress is not None:
            _split_progress(progress, task.meta[0], splits)(task.size)

    results, report = run_chunks(
        tasks,
        workers=workers,
        policy=resilience.policy,
        journal=journal,
        faults=resilience.faults,
        validate=_validate_campaign_payload,
        on_chunk=on_chunk,
        backend=resilience.backend,
        distributed=resilience.distributed,
        fingerprint=fingerprint,
    )
    campaign.run_report = report
    for benchmark, pairs in zip(names, results):
        _assemble(campaign, benchmark, pairs)
    if journal is not None:
        journal.discard()
    return campaign


def run_campaign(
    simulator: Simulator,
    scale: Optional[ScalePreset] = None,
    space: Optional[DesignSpace] = None,
    benchmarks: Optional[Sequence[str]] = None,
    progress=None,
    workers: int = 1,
    resilience: Optional[ResilienceConfig] = None,
    batch_size: Optional[int] = None,
) -> Campaign:
    """Sample, simulate, and assemble datasets.

    The training and validation samples are drawn disjointly UAR from the
    *sampling* space (which is wider in depth than the exploration space —
    Section 3.5's guard against extrapolation).  Every sampled design is
    simulated for every benchmark, as in the paper.

    ``workers > 1`` parallelizes over processes, one chunk per benchmark
    (results identical to the serial run).  ``progress`` callbacks fire
    on both paths with the same ``(benchmark, split, done, total)``
    stream, where ``done`` is cumulative per split and ends at
    ``total``: per completed block of the batch kernel serially, once
    per split when a benchmark's chunk completes in parallel.

    ``resilience`` (or any ``workers > 1`` run, which uses the default
    policy) routes execution through :func:`repro.harness.resilience.run_chunks`:
    transient worker failures retry with backoff, a journal path enables
    checkpoint/resume, and the finished campaign carries a ``run_report``.

    Both paths replay each benchmark's trace once per block of up to
    ``batch_size`` configs through the batched timing kernel.  ``None``
    gives one block per benchmark (train and validation points together)
    on either path.  Results and journal layout are bit-identical for
    every batch size and on every path.
    """
    scale = scale or get_scale()
    space = space or sampling_space()
    names = tuple(benchmarks or BENCHMARK_NAMES)

    total = scale.n_train + scale.n_validation
    points = sample_uar(space, total, seed=scale.seed)
    train_points = points[: scale.n_train]
    validation_points = points[scale.n_train :]

    campaign = Campaign(
        space=space,
        scale=scale,
        benchmarks=names,
        train_points=train_points,
        validation_points=validation_points,
    )
    splits = (("train", train_points), ("validation", validation_points))
    tracer = get_tracer()
    with tracer.span(
        "campaign.run",
        benchmarks=list(names),
        n_train=scale.n_train,
        n_validation=scale.n_validation,
        workers=workers,
    ):
        if workers > 1 or resilience is not None:
            return _run_campaign_resilient(
                campaign,
                simulator,
                points,
                splits,
                progress,
                workers,
                resilience or ResilienceConfig(),
                batch_size,
            )

        for benchmark in names:
            with tracer.span(
                "campaign.benchmark", benchmark=benchmark, points=len(points)
            ):
                pairs = _simulate_points(
                    simulator,
                    space,
                    benchmark,
                    scale.trace_length,
                    scale.seed,
                    points,
                    batch_size,
                    on_block=(
                        None
                        if progress is None
                        else _split_progress(progress, benchmark, splits)
                    ),
                )
            _assemble(campaign, benchmark, pairs)
    return campaign


def fit_campaign_models(
    campaign: Campaign,
) -> Dict[str, Dict[str, FittedModel]]:
    """Fit the paper's performance and power models per benchmark.

    Returns ``{benchmark: {"bips": model, "watts": model}}``.
    """
    models: Dict[str, Dict[str, FittedModel]] = {}
    for benchmark in campaign.benchmarks:
        data = campaign.dataset(benchmark, "train").columns()
        models[benchmark] = {
            "bips": fit_ols(performance_spec(), data),
            "watts": fit_ols(power_spec(), data),
        }
    return models
