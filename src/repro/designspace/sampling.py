"""Design space samplers.

The paper samples designs uniformly at random (UAR) from the full space —
Section 2.3 argues this decouples simulation count from space cardinality
and avoids baseline-centred bias.  We provide the UAR sampler used by the
paper plus two alternatives useful for ablation: stratified sampling along
one parameter (guaranteeing coverage of every level) and a deterministic
low-discrepancy (Halton) sampler.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .parameters import ParameterError
from .pointset import PointSet
from .space import DesignPoint, DesignSpace


def _generator(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _uar_indices(size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct UAR draws from ``range(size)`` as an int64 array."""
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    if count > size:
        raise ParameterError(
            f"cannot draw {count} unique points from a space of {size}"
        )
    if count * 20 >= size:
        return rng.choice(size, size=count, replace=False)
    # For huge spaces, rejection sampling beats materializing range(|S|):
    # draw twice the shortfall, keep each new index at its first
    # occurrence in draw order, repeat until ``count`` are kept.
    kept = np.empty(0, dtype=np.int64)
    while kept.size < count:
        needed = count - kept.size
        draws = rng.integers(0, size, size=needed * 2)
        _, first = np.unique(draws, return_index=True)
        fresh = draws[np.sort(first)]
        fresh = fresh[~np.isin(fresh, kept)]
        kept = np.concatenate([kept, fresh[:needed]])
    return kept


def sample_uar_indices(
    space: DesignSpace, count: int, seed: Optional[int] = None
) -> np.ndarray:
    """Indices into ``space`` of ``count`` points drawn uniformly at random.

    Points are sampled without replacement, matching the paper's n=1,000
    distinct training designs; requires ``count <= |space|``.  Decode with
    :meth:`DesignSpace.point_at` or wrap in a :class:`PointSet`.
    """
    return _uar_indices(len(space), count, _generator(seed))


def sample_uar(
    space: DesignSpace, count: int, seed: Optional[int] = None
) -> List[DesignPoint]:
    """Sample ``count`` distinct points uniformly at random from ``space``.

    The points of :func:`sample_uar_indices` with the same arguments.
    """
    return list(PointSet(space, sample_uar_indices(space, count, seed)))


def sample_stratified_indices(
    space: DesignSpace,
    parameter_name: str,
    per_level: int,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Indices into ``space`` of ``per_level`` UAR points per parameter level.

    Guarantees every level of ``parameter_name`` appears equally often —
    useful when validating per-depth trends (Section 5) where plain UAR may
    under-represent a level at small sample counts.  Each level draws from
    the subspace with that parameter pinned (seeded from ``seed``), and
    the subspace indices are re-encoded into ``space``'s mixed radix.
    """
    parameter = space.parameter(parameter_name)
    j = space.names.index(parameter.name)
    radix = space.radices[j]
    level_size = len(space) // parameter.cardinality
    rng = _generator(seed)
    strata = []
    for level in range(parameter.cardinality):
        child_seed = int(rng.integers(0, 2**31 - 1))
        indices = _uar_indices(level_size, per_level, _generator(child_seed))
        # The pinned parameter contributes factor 1 to the subspace
        # radix, so the digits above it shift up by one place of ``space``.
        high, low = np.divmod(indices, radix)
        strata.append((high * parameter.cardinality + level) * radix + low)
    return np.concatenate(strata)


def sample_stratified(
    space: DesignSpace,
    parameter_name: str,
    per_level: int,
    seed: Optional[int] = None,
) -> List[DesignPoint]:
    """Sample ``per_level`` points UAR within each level of one parameter.

    The points of :func:`sample_stratified_indices` with the same arguments.
    """
    indices = sample_stratified_indices(space, parameter_name, per_level, seed)
    return list(PointSet(space, indices))


def _halton_sequence(index: int, base: int) -> float:
    """The ``index``-th element of the van der Corput sequence in ``base``."""
    result = 0.0
    fraction = 1.0 / base
    i = index
    while i > 0:
        result += fraction * (i % base)
        i //= base
        fraction /= base
    return result


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sample_halton(space: DesignSpace, count: int) -> List[DesignPoint]:
    """Deterministic low-discrepancy sample of ``count`` points.

    Each parameter is driven by a Halton sequence in a distinct prime base,
    skipping its first 20 elements; the unit-interval coordinate selects a
    level by equal-width binning.  Provided for sampler ablations against
    the paper's UAR choice.
    """
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    if len(space.parameters) > len(_PRIMES):
        raise ParameterError(
            f"halton sampler supports at most {len(_PRIMES)} parameters"
        )
    points: List[DesignPoint] = []
    for i in range(count):
        values = {}
        for parameter, base in zip(space.parameters, _PRIMES):
            coordinate = _halton_sequence(i + 20, base)
            level = min(
                int(coordinate * parameter.cardinality), parameter.cardinality - 1
            )
            values[parameter.name] = parameter.values[level]
        points.append(space.point(**values))
    return points
