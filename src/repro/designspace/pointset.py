"""Point sets stored as mixed-radix indices, and per-level lookup tables.

A :class:`PointSet` is an ordered set of design points held as one int64
array of indices into a :class:`DesignSpace` (see
:meth:`DesignSpace.point_at`).  Sampling, sweeping and prediction work on
the index array and per-parameter level columns decoded from it; a
:class:`DesignPoint` is built only when a caller asks for one point (an
optimum, a frontier design, a validation point).  The exploration set of
262,500 designs is then 2 MB of indices instead of 262,500 objects.

Explicit point lists (search candidates, frontier designs) become a
:class:`PointSet` through :meth:`PointSet.from_points`, so the sweep
engine takes one kind of input.

The level tables map a parameter's grid level index to its encoded
coordinate or its raw value.  The encoder, the point sets and the sweep
engine all gather through them, so every path computes the same bits.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from .parameters import ParameterError
from .space import DesignPoint, DesignSpace


def encoded_level_tables(space: DesignSpace) -> List[np.ndarray]:
    """Per-parameter lookup table: level index -> encoded coordinate.

    Built with :meth:`Parameter.encode`, so a gather through these tables
    is bitwise identical to encoding each point's values one by one.
    """
    return [
        np.array([parameter.encode(value) for value in parameter.values])
        for parameter in space.parameters
    ]


def raw_level_tables(space: DesignSpace) -> List[np.ndarray]:
    """Per-parameter lookup table: level index -> raw value as a float."""
    return [
        np.array(parameter.values, dtype=float) for parameter in space.parameters
    ]


def index_levels(space: DesignSpace, indices: np.ndarray) -> np.ndarray:
    """``(n, P)`` grid level indices of mixed-radix point indices.

    Column-major, so each parameter's levels are one contiguous column,
    in the narrowest unsigned integer dtype that holds every level.
    """
    indices = np.asarray(indices, dtype=np.int64)
    widest = max(parameter.cardinality for parameter in space.parameters)
    levels = np.empty(
        (indices.size, len(space.names)),
        dtype=np.min_scalar_type(widest - 1),
        order="F",
    )
    scratch = np.empty_like(indices)
    for j, (parameter, radix) in enumerate(zip(space.parameters, space.radices)):
        np.floor_divide(indices, radix, out=scratch)
        np.remainder(scratch, parameter.cardinality, out=scratch)
        levels[:, j] = scratch
    return levels


def _raise_first_off_grid(space: DesignSpace, points: Sequence[DesignPoint]) -> None:
    """Raise what per-point encoding raises for the first bad point."""
    for point in points:
        if tuple(point.names) != space.names:
            raise ParameterError(
                f"point parameters {point.names} do not match space {space.names}"
            )
        for parameter, value in zip(space.parameters, point.values):
            parameter.index_of(value)


def point_levels(space: DesignSpace, points: Sequence[DesignPoint]) -> np.ndarray:
    """``(n, P)`` grid level indices of explicit points, vectorized.

    Column-major, like :func:`index_levels`.  Every point must lie on the
    grid of ``space``: a point with other parameter names, or with a value
    that is not a level, raises the same :class:`ParameterError` that
    encoding the points one by one raises.
    """
    width = len(space.names)
    if not points:
        return np.empty((0, width), dtype=np.int64)
    # One C-level pass: points of the space share its names tuple, so
    # ``count`` matches them by identity.  Only otherwise compare by value.
    names = [point.names for point in points]
    if names.count(space.names) != len(names) and any(
        tuple(point_names) != space.names for point_names in names
    ):
        _raise_first_off_grid(space, points)
    try:
        raw = np.array([point.values for point in points], dtype=float)
    except (TypeError, ValueError):
        _raise_first_off_grid(space, points)
        raise
    levels = np.empty((len(points), width), dtype=np.int64, order="F")
    for j, table in enumerate(raw_level_tables(space)):
        positions = np.minimum(np.searchsorted(table, raw[:, j]), table.size - 1)
        if (table[positions] != raw[:, j]).any():
            _raise_first_off_grid(space, points)
        levels[:, j] = positions
    return levels


class PointSet:
    """An ordered set of design points of one space, held as indices.

    ``len``, iteration and int indexing behave like a list of
    :class:`DesignPoint` (each access decodes one point with
    :meth:`DesignSpace.point_at`); slicing and indexing with an integer
    array or list return a new :class:`PointSet`; :meth:`from_points`
    builds one from explicit points.  :meth:`levels`,
    :meth:`column` and :meth:`level_matrix` give whole per-parameter
    arrays without building any point.
    """

    __slots__ = ("space", "indices", "_levels")

    def __init__(self, space: DesignSpace, indices) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ParameterError("point set indices must be one-dimensional")
        if indices.size and (indices.min() < 0 or indices.max() >= len(space)):
            raise ParameterError(f"point set indices out of range for |S|={len(space)}")
        self.space = space
        self.indices = indices
        self._levels = None

    @classmethod
    def from_points(
        cls, space: DesignSpace, points: Sequence[DesignPoint]
    ) -> "PointSet":
        """The point set holding ``points`` in order, duplicates kept.

        Raises :class:`ParameterError` for a point off the grid of
        ``space`` (see :func:`point_levels`).
        """
        radices = np.array(space.radices, dtype=np.int64)
        return cls(space, point_levels(space, list(points)) @ radices)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.space.point_at(int(self.indices[key]))
        return PointSet(self.space, self.indices[key])

    def __iter__(self) -> Iterator[DesignPoint]:
        point_at = self.space.point_at
        for index in self.indices.tolist():
            yield point_at(index)

    def levels(self, name: str) -> np.ndarray:
        """Grid level index of every point for one parameter."""
        parameter = self.space.parameter(name)
        radix = self.space.radices[self.space.names.index(parameter.name)]
        return (self.indices // radix) % parameter.cardinality

    def column(self, name: str) -> np.ndarray:
        """Raw value (as a float) of every point for one parameter."""
        table = np.array(self.space.parameter(name).values, dtype=float)
        return table[self.levels(name)]

    def level_matrix(self) -> np.ndarray:
        """``(n, P)`` grid level indices (see :func:`index_levels`).

        Decoded on first call and memoized read-only, so every sweep of
        this point set slices its blocks from one decode.
        """
        if self._levels is None:
            levels = index_levels(self.space, self.indices)
            levels.flags.writeable = False
            self._levels = levels
        return self._levels

    def __repr__(self) -> str:
        return f"PointSet({self.space.name!r}, n={len(self)})"
