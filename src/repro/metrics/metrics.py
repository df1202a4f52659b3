"""Power-performance metrics (Section 4.2, footnote 2).

The paper evaluates designs by delay (inverse throughput over a notional
full run), power (watts) and ``bips^3/w`` — the voltage-invariant
efficiency metric derived from the cubic power/voltage relationship [2].
All functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    """Raised for non-physical metric inputs."""


def _check_positive(name: str, value) -> None:
    if np.any(np.asarray(value) <= 0):
        raise MetricError(f"{name} must be positive")


def _delay(bips: np.ndarray, ref_instructions: float) -> np.ndarray:
    return ref_instructions / (bips * 1e9)


def _efficiency(bips: np.ndarray, watts: np.ndarray) -> np.ndarray:
    return bips**3 / watts


def delay_seconds(bips, ref_instructions: float):
    """End-to-end delay of a ``ref_instructions``-long run at ``bips``."""
    _check_positive("bips", bips)
    _check_positive("ref_instructions", ref_instructions)
    return _delay(np.asarray(bips, dtype=float), ref_instructions)


def bips3_per_watt(bips, watts):
    """The paper's efficiency metric: inverse energy delay-squared."""
    _check_positive("watts", watts)
    bips = np.asarray(bips, dtype=float)
    if np.any(bips < 0):
        raise MetricError("bips must be non-negative")
    return _efficiency(bips, np.asarray(watts, dtype=float))


def block_metrics(bips: np.ndarray, watts: np.ndarray, ref_instructions: float):
    """(delay, bips^3/w) of float arrays, checking each input once.

    Equal to :func:`delay_seconds` and :func:`bips3_per_watt` and raises
    the same :class:`MetricError` for a non-positive input, but reads
    each array once instead of once per metric.
    """
    if (bips <= 0).any():
        raise MetricError("bips must be positive")
    if ref_instructions <= 0:
        raise MetricError("ref_instructions must be positive")
    if (watts <= 0).any():
        raise MetricError("watts must be positive")
    return _delay(bips, ref_instructions), _efficiency(bips, watts)
