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


def delay_seconds(bips, ref_instructions: float):
    """End-to-end delay of a ``ref_instructions``-long run at ``bips``."""
    _check_positive("bips", bips)
    _check_positive("ref_instructions", ref_instructions)
    return ref_instructions / (np.asarray(bips, dtype=float) * 1e9)


def bips3_per_watt(bips, watts):
    """The paper's efficiency metric: inverse energy delay-squared."""
    _check_positive("watts", watts)
    bips = np.asarray(bips, dtype=float)
    if np.any(bips < 0):
        raise MetricError("bips must be non-negative")
    return bips**3 / np.asarray(watts, dtype=float)
