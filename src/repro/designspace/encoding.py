"""Numeric encodings of design points.

Regression and clustering both consume design points as numeric vectors.
The encoding uses each parameter's ``encode`` rule (log2 for geometric
ranges such as width and cache sizes, identity otherwise), and the
clustering path additionally normalizes coordinates to [0, 1] with optional
per-parameter weights (Section 6.1's "normalized and weighted vectors").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .parameters import ParameterError
from .pointset import PointSet, encoded_level_tables, point_levels
from .space import DesignPoint, DesignSpace


class DesignEncoder:
    """Encode design points of one space into numeric feature vectors."""

    def __init__(self, space: DesignSpace):
        self.space = space
        self.feature_names = list(space.names)
        self._tables = encoded_level_tables(space)

    def encode_point(self, point: DesignPoint) -> np.ndarray:
        """One point -> 1-D float vector in parameter order."""
        if tuple(point.names) != self.space.names:
            raise ParameterError(
                f"point parameters {point.names} do not match space {self.space.names}"
            )
        return np.array(
            [
                parameter.encode(value)
                for parameter, value in zip(self.space.parameters, point.values)
            ],
            dtype=float,
        )

    def encode(self, points: Iterable[DesignPoint]) -> np.ndarray:
        """Many points -> 2-D matrix, one row per point.

        Vectorized over the points (grid levels, then one table gather
        per parameter) and bitwise identical to stacking
        :meth:`encode_point` rows.  A :class:`PointSet` of this space
        skips the per-point level lookup altogether.
        """
        if isinstance(points, PointSet) and points.space is self.space:
            levels = points.level_matrix()
        else:
            levels = point_levels(self.space, list(points))
        matrix = np.empty(levels.shape)
        for j, table in enumerate(self._tables):
            matrix[:, j] = table[levels[:, j]]
        return matrix

    def decode_vector(self, vector: Sequence[float]) -> DesignPoint:
        """Snap an encoded vector back to the nearest valid design point."""
        if len(vector) != len(self.space.parameters):
            raise ParameterError(
                f"vector has {len(vector)} coordinates for "
                f"{len(self.space.parameters)} parameters"
            )
        values = {
            parameter.name: parameter.decode(float(coordinate))
            for parameter, coordinate in zip(self.space.parameters, vector)
        }
        return self.space.point(**values)


class NormalizedEncoder(DesignEncoder):
    """Encoder whose coordinates are scaled to [0, 1] and weighted.

    Euclidean distance between these vectors is the similarity metric used
    by K-means in the heterogeneity study.  Parameters whose encoded span is
    zero (e.g. in a subspace with a pinned value) encode as 0.
    """

    def __init__(
        self, space: DesignSpace, weights: Optional[Mapping[str, float]] = None
    ):
        super().__init__(space)
        weights = dict(weights or {})
        unknown = set(weights) - set(space.names)
        if unknown:
            raise ParameterError(f"weights for unknown parameters: {sorted(unknown)}")
        if any(w < 0 for w in weights.values()):
            raise ParameterError("weights must be non-negative")
        self.weights: Dict[str, float] = {
            name: float(weights.get(name, 1.0)) for name in space.names
        }
        lows: List[float] = []
        spans: List[float] = []
        for parameter in space.parameters:
            low, high = parameter.span()
            lows.append(low)
            spans.append(high - low)
        self._lows = np.array(lows)
        self._spans = np.array(spans)
        self._weight_vector = np.array([self.weights[n] for n in space.names])

    def _normalize(self, raw: np.ndarray) -> np.ndarray:
        """Scale encoded coordinates (a vector or rows) to weighted [0, 1]."""
        with np.errstate(invalid="ignore"):
            safe_spans = np.where(self._spans > 0, self._spans, 1.0)
            unit = np.where(self._spans > 0, (raw - self._lows) / safe_spans, 0.0)
        return unit * self._weight_vector

    def encode_point(self, point: DesignPoint) -> np.ndarray:
        return self._normalize(super().encode_point(point))

    def encode(self, points: Iterable[DesignPoint]) -> np.ndarray:
        return self._normalize(super().encode(points))

    def decode_vector(self, vector: Sequence[float]) -> DesignPoint:
        vector = np.asarray(vector, dtype=float)
        if vector.shape != self._weight_vector.shape:
            raise ParameterError(
                f"vector has {vector.size} coordinates for "
                f"{self._weight_vector.size} parameters"
            )
        safe_weights = np.where(self._weight_vector > 0, self._weight_vector, 1.0)
        raw = (vector / safe_weights) * self._spans + self._lows
        return super().decode_vector(raw)
