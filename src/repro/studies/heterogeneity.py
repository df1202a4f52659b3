"""Study 3: Multiprocessor heterogeneity analysis (Section 6).

Per-benchmark bips^3/w-optimal architectures (Table 2) are clustered with
K-means in normalized parameter space; each cluster's centroid — snapped
to the design grid — is a *compromise architecture*.  Sweeping K from 0
(the POWER4-like baseline) through 9 (every benchmark on its own optimum)
quantifies the efficiency gains of increasing core heterogeneity
(Figure 9), with Table 4 the K=4 design listing and Figure 8 the
delay/power map of optima versus compromises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cluster import kmeans
from ..designspace import DesignPoint, NormalizedEncoder
from ..metrics import bips3_per_watt
from .common import StudyContext
from .pareto import EfficiencyOptimum, table2


@dataclass
class CompromiseCluster:
    """One compromise architecture and the benchmarks it serves."""

    point: DesignPoint
    benchmarks: List[str]
    mean_delay: float = float("nan")
    mean_power: float = float("nan")


@dataclass
class Clustering:
    """K-means outcome over the benchmark architectures."""

    k: int
    clusters: List[CompromiseCluster]
    assignment: Dict[str, int]
    inertia: float


def benchmark_optima(
    ctx: StudyContext, validate: bool = False
) -> Dict[str, EfficiencyOptimum]:
    """Table 2's architectures keyed by benchmark (memoized on the ctx)."""
    cache_key = ("benchmark-optima", validate)
    store = ctx._heterogeneity_cache
    if cache_key not in store:
        rows = table2(ctx, validate=validate)
        store[cache_key] = {row.benchmark: row for row in rows}
    return store[cache_key]


def cluster_architectures(
    ctx: StudyContext,
    k: int,
    optima: Optional[Mapping[str, EfficiencyOptimum]] = None,
    weights: Optional[Mapping[str, float]] = None,
    seed: int = 0,
) -> Clustering:
    """K-means over the benchmark architectures in normalized space.

    Centroids are snapped to the nearest valid design point (compromise
    architectures must be buildable); the paper's Euclidean similarity on
    normalized, weighted parameter vectors is implemented by
    :class:`~repro.designspace.NormalizedEncoder`.
    """
    optima = optima or benchmark_optima(ctx)
    names = list(optima)
    encoder = NormalizedEncoder(ctx.exploration_space, weights=weights)
    vectors = encoder.encode([optima[name].point for name in names])
    result = kmeans(vectors, k, seed=seed, restarts=20)

    clusters: List[CompromiseCluster] = []
    assignment: Dict[str, int] = {}
    for j in range(k):
        members = [names[i] for i in result.members(j)]
        if not members:
            continue
        index = len(clusters)
        point = encoder.decode_vector(result.centroids[j])
        clusters.append(CompromiseCluster(point=point, benchmarks=members))
        for name in members:
            assignment[name] = index
    return Clustering(
        k=len(clusters),
        clusters=clusters,
        assignment=assignment,
        inertia=result.inertia,
    )


def annotate_cluster_metrics(ctx: StudyContext, clustering: Clustering) -> None:
    """Fill each cluster's mean predicted delay/power over its benchmarks.

    One batched prediction per benchmark covers every cluster point, so
    the cost is |benchmarks| vectorized calls rather than one per
    (cluster, benchmark) pair.
    """
    clusters = clustering.clusters
    if not clusters:
        return
    points = [cluster.point for cluster in clusters]
    benchmarks = sorted({b for c in clusters for b in c.benchmarks})
    tables = {b: ctx.predict_points(b, points) for b in benchmarks}
    for i, cluster in enumerate(clusters):
        delays = [float(tables[b].delay[i]) for b in cluster.benchmarks]
        powers = [float(tables[b].watts[i]) for b in cluster.benchmarks]
        cluster.mean_delay = float(np.mean(delays))
        cluster.mean_power = float(np.mean(powers))


def table4(ctx: StudyContext, k: int = 4, seed: int = 0) -> Clustering:
    """Table 4: the K=4 compromise architectures with mean delay/power."""
    clustering = cluster_architectures(ctx, k, seed=seed)
    annotate_cluster_metrics(ctx, clustering)
    return clustering


@dataclass
class HeterogeneitySweep:
    """Figure 9 data: efficiency gains versus cluster count."""

    cluster_counts: List[int]
    per_benchmark: Dict[str, List[float]]   # gain per K, aligned to counts
    average: List[float]
    simulated: bool


def k_sweep(
    ctx: StudyContext,
    max_k: Optional[int] = None,
    simulate: bool = False,
    seed: int = 0,
) -> HeterogeneitySweep:
    """Efficiency gain per benchmark as heterogeneity (K) grows.

    ``K=0`` is the baseline core (gain 1.0 by construction); for ``K>=1``
    each benchmark runs on its cluster's compromise architecture.  Gains
    are bips^3/w relative to the baseline core, predicted by the models or
    — with ``simulate=True`` — measured by simulation (Figure 9b).
    """
    optima = benchmark_optima(ctx)
    names = list(optima)
    max_k = max_k or len(names)
    counts = list(range(0, max_k + 1))

    baseline = ctx.baseline
    clusterings = {
        k: cluster_architectures(ctx, k, optima=optima, seed=seed)
        for k in counts
        if k >= 1
    }

    def assigned_point(name: str, k: int) -> DesignPoint:
        clustering = clusterings[k]
        return clustering.clusters[clustering.assignment[name]].point

    # One batched evaluation per benchmark covers the baseline plus every
    # distinct compromise the benchmark is assigned across all K — with
    # ``simulate=True`` that is one trace replay per benchmark instead of
    # one simulation per (benchmark, K).
    def evaluate(name: str, points: List[DesignPoint]) -> Dict[tuple, float]:
        if simulate:
            results = ctx.simulate_many(name, points)
            values = [float(r.bips3_per_watt) for r in results]
        else:
            values = [float(v) for v in ctx.predict_points(name, points).efficiency]
        return {tuple(p.values): v for p, v in zip(points, values)}

    efficiency: Dict[str, Dict[tuple, float]] = {}
    for name in names:
        wanted = {tuple(baseline.values): baseline}
        for k in clusterings:
            point = assigned_point(name, k)
            wanted.setdefault(tuple(point.values), point)
        efficiency[name] = evaluate(name, list(wanted.values()))

    base_eff = {name: efficiency[name][tuple(baseline.values)] for name in names}
    per_benchmark: Dict[str, List[float]] = {name: [] for name in names}
    for k in counts:
        for name in names:
            if k == 0:
                per_benchmark[name].append(1.0)
                continue
            key = tuple(assigned_point(name, k).values)
            per_benchmark[name].append(
                efficiency[name][key] / base_eff[name]
            )

    average = [
        float(np.mean([per_benchmark[name][i] for name in names]))
        for i in range(len(counts))
    ]
    return HeterogeneitySweep(
        cluster_counts=counts,
        per_benchmark=per_benchmark,
        average=average,
        simulated=simulate,
    )


@dataclass
class DelayPowerMap:
    """Figure 8 data: optima (radial points) and compromises (circles)."""

    optima: Dict[str, tuple]        # benchmark -> (delay, power)
    compromises: List[tuple]        # (delay, power) of each K=4 cluster
    assignment: Dict[str, int]


def delay_power_map(ctx: StudyContext, k: int = 4, seed: int = 0) -> DelayPowerMap:
    """Delay/power of each benchmark on its optimum and on its compromise."""
    optima = benchmark_optima(ctx)
    clustering = table4(ctx, k=k, seed=seed)
    points = {
        name: (row.predicted_delay, row.predicted_watts)
        for name, row in optima.items()
    }
    compromises = [
        (cluster.mean_delay, cluster.mean_power) for cluster in clustering.clusters
    ]
    return DelayPowerMap(
        optima=points,
        compromises=compromises,
        assignment=clustering.assignment,
    )
