"""K-means clustering (Section 6).

The paper clusters per-benchmark optimal architectures in normalized,
weighted parameter space with the classic K-means heuristic (random
centroid placement, assign/recompute until stable).  This implementation
seeds with k-means++ only, in place of the paper's random placement, and
keeps the best of several restarts by inertia; both are standard
hardening of the same heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class KMeansError(ValueError):
    """Raised for infeasible clustering requests."""


@dataclass
class KMeansResult:
    """Outcome of one clustering: centroids, assignments, inertia."""

    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) cluster index per point
    inertia: float                 # sum of squared distances to centroids
    iterations: int
    converged: bool

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def members(self, cluster: int) -> np.ndarray:
        """Indices of the points assigned to ``cluster``."""
        return np.flatnonzero(self.assignments == cluster)


def _distances_sq(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _init_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(0, n)]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(0, n)]
        else:
            probabilities = closest / total
            centroids[j] = points[rng.choice(n, p=probabilities)]
        distances = ((points - centroids[j]) ** 2).sum(axis=1)
        np.minimum(closest, distances, out=closest)
    return centroids


def lloyd_iteration(
    points: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int = 100,
) -> KMeansResult:
    """Steps 2-4 of the paper's heuristic from given initial centroids."""
    k = centroids.shape[0]
    assignments = np.full(points.shape[0], -1)
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        distances = _distances_sq(points, centroids)
        new_assignments = distances.argmin(axis=1)
        if (new_assignments == assignments).all():
            converged = True
            break
        assignments = new_assignments
        for j in range(k):
            members = points[assignments == j]
            if members.size:
                centroids[j] = members.mean(axis=0)
            # Empty clusters keep their previous centroid (they may
            # re-acquire members on a later iteration).
    inertia = float(_distances_sq(points, centroids).min(axis=1).sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations=iteration,
        converged=converged,
    )


def kmeans(
    points: np.ndarray,
    k: int,
    seed: Optional[int] = None,
    restarts: int = 10,
    max_iterations: int = 100,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups; best of ``restarts`` runs.

    Each run seeds its centroids with k-means++.  Requires ``k <= n``;
    with ``k == n`` every point is its own cluster (the paper's "nine
    benchmark architectures" upper bound).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise KMeansError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise KMeansError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise KMeansError(f"restarts must be >= 1, got {restarts}")

    rng = np.random.default_rng(seed)
    best: Optional[KMeansResult] = None
    for _ in range(restarts):
        centroids = _init_plus_plus(points, k, rng)
        result = lloyd_iteration(points, centroids, max_iterations)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best
