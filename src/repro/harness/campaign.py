"""Simulation campaigns (Section 2.3's protocol).

A campaign samples designs uniformly at random from the Table 1 space,
simulates every sampled design on every benchmark, and assembles training
and validation datasets — the inputs to model fitting and Figure 1.

The unit of work is one benchmark: every sampled design (train and
validation together) replayed through the batched timing kernel on that
benchmark's trace in one kernel call.  Every run goes through
:func:`repro.harness.resilience.run_chunks`, one chunk per benchmark:
in-process on the caller's simulator with ``workers == 1``, over a
process pool otherwise (each worker rebuilds its deterministic trace, so
results are bit-identical to an in-process run).  A chunk that fails
aborts the run; a pool run whose worker is killed finishes in-process.
:func:`repro.harness.artifacts.cached_campaign` persists each
benchmark's result as its chunk completes, so a rerun resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..designspace import DesignPoint, DesignSpace, sample_uar, sampling_space
from ..obs.tracing import get_tracer
from ..regression import FittedModel, fit_models, performance_spec, power_spec
from ..simulator import (
    ConfigColumns,
    Simulator,
    config_columns,
    configs_from_points,
)
from ..workloads import BENCHMARK_NAMES, get_profile
from .dataset import Dataset
from .resilience import (
    ChunkTask,
    CorruptResultError,
    RunReport,
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
    #: Execution accounting (chunks, degradation, metrics) of
    #: the benchmarks simulated by the run that built this campaign.
    #: Benchmarks loaded from disk are not in it: when every one was,
    #: it reports zero chunks and no metrics.
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


def _simulate_chunk(
    simulator: Optional[Simulator],
    benchmark: str,
    trace_length: int,
    seed: int,
    configs: ConfigColumns,
) -> List[Tuple[float, float]]:
    """Simulate ``configs`` on one benchmark's trace; returns (bips, watts).

    The one way a campaign simulates: the campaign's resolved block in one
    :meth:`Simulator.simulate` call.  In-process chunks pass the caller's
    ``simulator``; pool workers pass None and build a fresh one, whose
    deterministic trace gives outputs identical to an in-process run.
    """
    simulator = simulator or Simulator()
    trace = simulator.trace_for(get_profile(benchmark), trace_length, seed=seed)
    results = simulator.simulate(trace, configs)
    return [(r.bips, float(r.watts)) for r in results]


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


def _campaign_description(
    scale: ScalePreset, space: DesignSpace, names: Sequence[str]
) -> dict:
    """Everything that determines a campaign's results, as JSON data.

    A simulation result depends only on (trace, config), so the scale
    knobs, the space and the benchmark list describe a campaign fully.
    The artifact cache keys each benchmark by digesting it with
    ``names`` set to that one benchmark.
    """
    return {
        "scale": {
            "trace_length": scale.trace_length,
            "n_train": scale.n_train,
            "n_validation": scale.n_validation,
            "seed": scale.seed,
        },
        "space": {
            "name": space.name,
            "parameters": [[p.name, list(p.values)] for p in space.parameters],
        },
        "benchmarks": list(names),
    }


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


def _new_campaign(
    scale: Optional[ScalePreset],
    space: Optional[DesignSpace],
    benchmarks: Optional[Sequence[str]],
) -> Campaign:
    """A campaign with its UAR sample drawn and no benchmark simulated."""
    scale = scale or get_scale()
    space = space or sampling_space()
    points = sample_uar(space, scale.n_train + scale.n_validation, seed=scale.seed)
    return Campaign(
        space=space,
        scale=scale,
        benchmarks=tuple(benchmarks or BENCHMARK_NAMES),
        train_points=points[: scale.n_train],
        validation_points=points[scale.n_train :],
    )


def _simulate_benchmarks(
    simulator: Simulator,
    campaign: Campaign,
    names: Sequence[str],
    workers: int,
    on_benchmark: Optional[Callable[[str], None]] = None,
) -> None:
    """Simulate ``names`` over the campaign's points and assemble them.

    One chunk per benchmark, covering train and validation points in one
    kernel call.  Parallelism therefore stops at the benchmark count,
    which still wins at every width: each kernel call carries a fixed
    per-instruction cost, so splitting a benchmark into smaller chunks
    multiplies that cost instead of sharing the work.  With
    ``workers == 1`` the chunks run in-process on ``simulator``, so its
    trace cache serves later studies; with more they run on the pool.

    ``on_benchmark(name)`` fires once a benchmark's validated result is
    assembled into the campaign; ``campaign.run_report`` covers exactly
    these chunks.
    """
    scale = campaign.scale
    points = campaign.train_points + campaign.validation_points
    # Every benchmark simulates the same designs: resolve them once.
    configs = config_columns(configs_from_points(campaign.space, points))
    in_process = None if workers > 1 else simulator
    tasks = [
        ChunkTask(
            index=index,
            fn=_simulate_chunk,
            args=(in_process, benchmark, scale.trace_length, scale.seed, configs),
            size=len(points),
            meta=(benchmark,),
        )
        for index, benchmark in enumerate(names)
    ]

    def completed(task: ChunkTask, pairs) -> None:
        (benchmark,) = task.meta
        _assemble(campaign, benchmark, pairs)
        if on_benchmark is not None:
            on_benchmark(benchmark)

    with get_tracer().span(
        "campaign.run",
        benchmarks=list(names),
        n_train=scale.n_train,
        n_validation=scale.n_validation,
        workers=workers,
    ):
        _, campaign.run_report = run_chunks(
            tasks,
            workers=workers,
            validate=_validate_campaign_payload,
            on_chunk=completed,
        )


def run_campaign(
    simulator: Simulator,
    scale: Optional[ScalePreset] = None,
    benchmarks: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> Campaign:
    """Sample, simulate, and assemble datasets.

    The training and validation samples are drawn disjointly UAR from the
    *sampling* space (which is wider in depth than the exploration space —
    Section 3.5's guard against extrapolation).  Every sampled design is
    simulated for every benchmark, as in the paper, and nothing is
    persisted (:func:`repro.harness.artifacts.cached_campaign` does that).

    Execution goes through :func:`repro.harness.resilience.run_chunks`,
    one chunk per benchmark: in-process on ``simulator`` when
    ``workers == 1``, over a process pool otherwise, with results
    identical either way; the finished campaign carries a ``run_report``.
    Each benchmark's trace is replayed once through the batched timing
    kernel, over its train and validation points together.
    """
    campaign = _new_campaign(scale, None, benchmarks)
    _simulate_benchmarks(simulator, campaign, campaign.benchmarks, workers)
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
        bips, watts = fit_models([performance_spec(), power_spec()], data)
        models[benchmark] = {"bips": bips, "watts": watts}
    return models
