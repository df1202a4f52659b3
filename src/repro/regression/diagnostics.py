"""Model diagnostics: residual analysis and variable clustering.

The paper's derivation (Section 3, citing [14]) applied variable
clustering, correlation analysis and residual analysis before settling on
the model form.  This module implements those checks from scratch:

- Spearman rank correlation (monotone association, robust to the
  non-linear scales of microarchitectural predictors);
- hierarchical variable clustering on squared Spearman correlation, the
  Hmisc ``varclus`` idea: highly associated predictors cluster together,
  flagging redundancy;
- residual summaries against fitted values and against each predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .fit import FittedModel
from .terms import Columns


def rank_data(x: np.ndarray) -> np.ndarray:
    """Midranks of ``x`` (average ranks for ties)."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=float)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; 0.0 for degenerate (constant) inputs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    xd = x - x.mean()
    yd = y - y.mean()
    denom_sq = (xd @ xd) * (yd @ yd)
    if denom_sq <= 0:
        return 0.0
    return float((xd @ yd) / np.sqrt(denom_sq))


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation."""
    return pearson(rank_data(np.asarray(x)), rank_data(np.asarray(y)))


def correlation_matrix(data: Columns, names: Sequence[str]) -> np.ndarray:
    """Pairwise Spearman correlation matrix over the named columns."""
    k = len(names)
    matrix = np.eye(k)
    columns = [np.asarray(data[name], dtype=float) for name in names]
    for i in range(k):
        for j in range(i + 1, k):
            value = spearman(columns[i], columns[j])
            matrix[i, j] = matrix[j, i] = value
    return matrix


@dataclass
class VariableCluster:
    """A cluster in the variable-clustering dendrogram."""

    members: Tuple[str, ...]
    similarity: float  # squared correlation at which this cluster formed


def variable_clustering(
    data: Columns, names: Sequence[str], threshold: float = 0.3
) -> List[VariableCluster]:
    """Agglomerative clustering of predictors by squared Spearman rho.

    Average-linkage merging continues while the best pair similarity is at
    least ``threshold``; the result flags predictor groups that carry
    overlapping information (candidates for dropping or combining).
    """
    names = list(names)
    rho = correlation_matrix(data, names) ** 2
    clusters: List[List[int]] = [[i] for i in range(len(names))]
    formed_at: List[float] = [1.0] * len(names)

    def linkage(a: List[int], b: List[int]) -> float:
        return float(np.mean([rho[i, j] for i in a for j in b]))

    while len(clusters) > 1:
        best = None
        best_sim = threshold
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                sim = linkage(clusters[i], clusters[j])
                if sim >= best_sim:
                    best_sim = sim
                    best = (i, j)
        if best is None:
            break
        i, j = best
        merged = clusters[i] + clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        formed_at = [s for k, s in enumerate(formed_at) if k not in (i, j)]
        clusters.append(merged)
        formed_at.append(best_sim)

    return [
        VariableCluster(
            members=tuple(names[i] for i in sorted(cluster)),
            similarity=similarity,
        )
        for cluster, similarity in zip(clusters, formed_at)
    ]


@dataclass
class ResidualSummary:
    """Residual diagnostics on the transformed (fitting) scale."""

    residuals: np.ndarray
    fitted: np.ndarray
    standardized: np.ndarray
    mean: float
    std: float
    max_abs_standardized: float
    per_predictor_correlation: Dict[str, float] = field(default_factory=dict)


def residual_analysis(
    model: FittedModel, data: Mapping[str, np.ndarray]
) -> ResidualSummary:
    """Residuals of ``model`` on ``data`` plus drift checks.

    ``per_predictor_correlation`` reports the Spearman correlation of the
    residuals with each predictor: large magnitudes indicate unmodeled
    structure (a missing transform or interaction).
    """
    z = model.spec.transform.forward(np.asarray(data[model.spec.response], dtype=float))
    fitted = model.predict_transformed(data)
    residuals = z - fitted
    std = float(residuals.std(ddof=1)) if residuals.size > 1 else 0.0
    standardized = residuals / std if std > 0 else np.zeros_like(residuals)
    correlations = {
        name: spearman(residuals, np.asarray(data[name], dtype=float))
        for name in model.spec.predictors
    }
    return ResidualSummary(
        residuals=residuals,
        fitted=fitted,
        standardized=standardized,
        mean=float(residuals.mean()),
        std=std,
        max_abs_standardized=(
            float(np.abs(standardized).max()) if residuals.size else 0.0
        ),
        per_predictor_correlation=correlations,
    )
