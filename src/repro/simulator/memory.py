"""Memory hierarchy model consumed by the timing pipeline.

:class:`StackDistanceMemory` classifies each access by its LRU reuse
distance against the effective capacity of each level, via the inclusion
(stack) property of LRU: an access with distance ``d`` hits in any LRU
cache holding more than ``d`` blocks.  Set-associativity costs a conflict
factor (:func:`associativity_factor`, Smith's rule of thumb: ``a`` ways
remove about ``2^-a`` of fully-associative hits), which is how the
extended space's ``dl1_assoc`` reaches the timing model.  This gives
*steady-state* cache behaviour even for short traces — the role the
paper's sampled, validated traces [11] play — and guarantees miss-rate
monotonicity in capacity, which the design-space studies rely on.

The model is stateless apart from its counters: it returns the level that
services each access ("l1" / "l2" / "mem") and counts the traffic.
"""

from __future__ import annotations

from typing import Dict

from .config import MachineConfig

#: Fraction of the unified L2 effectively available to the data stream.
L2_DATA_SHARE = 0.85

#: Fraction of the unified L2 effectively available to the code stream.
#: Shares may overlap: they approximate contention, not a partition.
L2_INSTR_SHARE = 0.30

#: Blocks per KB at the 128-byte block size.
BLOCKS_PER_KB = 8


def associativity_factor(assoc: int) -> float:
    """Effective-capacity multiplier of an ``assoc``-way LRU cache.

    Approximates conflict misses: a direct-mapped cache behaves like a
    fully-associative cache of roughly half its size, and the penalty
    halves with each doubling of associativity (1 - 2^-a).
    """
    if assoc < 1:
        raise ValueError(f"associativity must be >= 1, got {assoc}")
    return 1.0 - 2.0 ** (-assoc)


class StackDistanceMemory:
    """Reuse-distance memory model (steady-state behaviour)."""

    def __init__(self, config: MachineConfig):
        self.dl1_effective = (
            config.dl1_kb * BLOCKS_PER_KB * associativity_factor(config.dl1_assoc)
        )
        self.il1_effective = (
            config.il1_kb * BLOCKS_PER_KB * associativity_factor(config.il1_assoc)
        )
        l2_blocks = config.l2_mb * 1024.0 * BLOCKS_PER_KB
        l2_factor = associativity_factor(config.l2_assoc)
        self.l2_data_effective = l2_blocks * l2_factor * L2_DATA_SHARE
        self.l2_instr_effective = l2_blocks * l2_factor * L2_INSTR_SHARE
        self._counts = _new_counts()

    def data_access(self, block: int, reuse: int) -> str:
        counts = self._counts
        counts["dl1_accesses"] += 1
        if reuse < self.dl1_effective:
            return "l1"
        counts["dl1_misses"] += 1
        counts["l2_accesses"] += 1
        if reuse < self.l2_data_effective:
            return "l2"
        counts["l2_misses"] += 1
        counts["memory_accesses"] += 1
        return "mem"

    def instr_access(self, block: int, reuse: int) -> str:
        counts = self._counts
        counts["il1_accesses"] += 1
        if reuse < self.il1_effective:
            return "l1"
        counts["il1_misses"] += 1
        counts["l2_accesses"] += 1
        if reuse < self.l2_instr_effective:
            return "l2"
        counts["l2_misses"] += 1
        counts["memory_accesses"] += 1
        return "mem"

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)


def _new_counts() -> Dict[str, int]:
    return {
        "il1_accesses": 0,
        "il1_misses": 0,
        "dl1_accesses": 0,
        "dl1_misses": 0,
        "l2_accesses": 0,
        "l2_misses": 0,
        "memory_accesses": 0,
    }
