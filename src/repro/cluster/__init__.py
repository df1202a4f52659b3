"""Clustering analyses for the heterogeneity study (Section 6)."""

from .kmeans import (
    KMeansError,
    KMeansResult,
    kmeans,
    lloyd_iteration,
)

__all__ = [
    "kmeans",
    "lloyd_iteration",
    "KMeansResult",
    "KMeansError",
]
