"""Workload-to-core assignment on heterogeneous multiprocessors.

Section 6 scores heterogeneity by letting *every benchmark run on its own
cluster's compromise core*.  A real heterogeneous CMP must schedule a mix
of co-resident workloads onto a fixed set of cores, one workload per core.
This module treats that as an assignment problem: given per-(workload,
core) efficiency predictions from the regression models, find the
one-to-one assignment maximizing total (log-)efficiency — solved exactly
with the Hungarian algorithm, implemented from scratch — and compare it
against naive scheduling and against a homogeneous CMP of the same core
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..designspace import DesignPoint
from .common import StudyContext
from .heterogeneity import cluster_architectures


class SchedulingError(ValueError):
    """Raised for infeasible assignment problems."""


def hungarian(cost: np.ndarray) -> List[Tuple[int, int]]:
    """Minimum-cost perfect assignment on a square cost matrix.

    A from-scratch O(n^3) implementation of the Hungarian (Kuhn-Munkres)
    algorithm in its potentials/augmenting-path form.  Returns a list of
    (row, column) pairs covering every row exactly once.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise SchedulingError(f"cost matrix must be square, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise SchedulingError("cost matrix must be finite")
    n = cost.shape[0]
    # potentials for rows (u) and columns (v); way[j] = previous column on
    # the augmenting path; match[j] = row matched to column j
    INF = float("inf")
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.full(n + 1, -1, dtype=int)

    for i in range(n):
        # find an augmenting path for row i (1-indexed virtual column 0)
        match[n] = i
        j0 = n
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        way = np.full(n + 1, n, dtype=int)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = -1
            for j in range(n):
                if used[j]:
                    continue
                current = cost[i0, j] - u[i0] - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == -1:
                break
        # unwind the augmenting path
        while j0 != n:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return [(int(match[j]), j) for j in range(n) if match[j] != -1]


@dataclass
class ScheduleResult:
    """One CMP schedule and its predicted quality."""

    assignment: Dict[str, int]           #: benchmark -> core index
    cores: List[DesignPoint]
    per_benchmark_efficiency: Dict[str, float]
    total_log_efficiency: float
    total_power: float

    @property
    def geomean_efficiency(self) -> float:
        """Geometric-mean bips^3/w across the scheduled workloads."""
        values = np.array(list(self.per_benchmark_efficiency.values()))
        if values.size == 0 or (values <= 0).any():
            raise SchedulingError(
                "geomean requires a non-empty set of positive efficiencies"
            )
        return float(np.exp(np.log(values).mean()))


def _efficiency_matrix(
    ctx: StudyContext, benchmarks: Sequence[str], cores: Sequence[DesignPoint]
) -> np.ndarray:
    """(benchmark, core) predicted bips^3/w matrix."""
    matrix = np.empty((len(benchmarks), len(cores)))
    for b, benchmark in enumerate(benchmarks):
        table = ctx.predict_points(benchmark, list(cores))
        matrix[b] = table.efficiency
    return matrix


def _power_of(ctx: StudyContext, benchmark: str, core: DesignPoint) -> float:
    return float(ctx.predict_points(benchmark, [core]).watts[0])


def schedule(
    ctx: StudyContext,
    cores: Sequence[DesignPoint],
    benchmarks: Optional[Sequence[str]] = None,
    policy: str = "optimal",
) -> ScheduleResult:
    """Assign one benchmark per core under a scheduling policy.

    Policies: ``"optimal"`` (Hungarian on -log efficiency — maximizes
    geometric-mean bips^3/w) and ``"naive"`` (benchmark i on core i).
    Requires exactly as many benchmarks as cores.
    """
    benchmarks = list(benchmarks or ctx.benchmarks)
    cores = list(cores)
    if len(benchmarks) != len(cores):
        raise SchedulingError(
            f"need one benchmark per core: {len(benchmarks)} benchmarks, "
            f"{len(cores)} cores"
        )
    efficiency = _efficiency_matrix(ctx, benchmarks, cores)
    if (efficiency <= 0).any():
        raise SchedulingError("predicted efficiencies must be positive")
    log_efficiency = np.log(efficiency)

    if policy == "optimal":
        pairs = hungarian(-log_efficiency)
    elif policy == "naive":
        pairs = [(i, i) for i in range(len(benchmarks))]
    else:
        raise SchedulingError(f"unknown policy {policy!r}")

    assignment = {benchmarks[b]: c for b, c in pairs}
    per_benchmark = {
        benchmarks[b]: float(efficiency[b, c]) for b, c in pairs
    }
    total_log = float(sum(log_efficiency[b, c] for b, c in pairs))
    total_power = sum(
        _power_of(ctx, benchmark, cores[core])
        for benchmark, core in assignment.items()
    )
    return ScheduleResult(
        assignment=assignment,
        cores=cores,
        per_benchmark_efficiency=per_benchmark,
        total_log_efficiency=total_log,
        total_power=total_power,
    )


@dataclass
class CMPComparison:
    """Heterogeneous vs homogeneous CMP under scheduling."""

    heterogeneous: ScheduleResult
    homogeneous: ScheduleResult
    naive: ScheduleResult

    @property
    def heterogeneity_gain(self) -> float:
        """Geomean-efficiency gain of the scheduled heterogeneous CMP."""
        return (
            self.heterogeneous.geomean_efficiency
            / self.homogeneous.geomean_efficiency
        )

    @property
    def scheduling_gain(self) -> float:
        """Optimal over naive scheduling on the same heterogeneous CMP."""
        return (
            self.heterogeneous.geomean_efficiency / self.naive.geomean_efficiency
        )


def compare_cmp_designs(
    ctx: StudyContext,
    core_types: int = 4,
    seed: int = 0,
) -> CMPComparison:
    """Schedule the suite on a K-type heterogeneous CMP vs a homogeneous one.

    The heterogeneous machine instantiates each of the K compromise cores
    enough times to host every benchmark (replicated round-robin); the
    homogeneous machine replicates the K=1 compromise core.
    """
    benchmarks = list(ctx.benchmarks)
    n = len(benchmarks)
    hetero_clusters = cluster_architectures(ctx, core_types, seed=seed)
    hetero_cores: List[DesignPoint] = []
    # replicate each compromise proportionally to its cluster population
    for cluster in hetero_clusters.clusters:
        hetero_cores.extend([cluster.point] * len(cluster.benchmarks))
    hetero_cores = hetero_cores[:n]
    while len(hetero_cores) < n:
        hetero_cores.append(hetero_clusters.clusters[0].point)

    homo_core = cluster_architectures(ctx, 1, seed=seed).clusters[0].point
    homo_cores = [homo_core] * n

    return CMPComparison(
        heterogeneous=schedule(ctx, hetero_cores, benchmarks, policy="optimal"),
        homogeneous=schedule(ctx, homo_cores, benchmarks, policy="optimal"),
        naive=schedule(ctx, hetero_cores, benchmarks, policy="naive"),
    )
