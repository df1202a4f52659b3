"""Simulation results.

:class:`ActivityCounts` aggregates the event counts the power model
consumes (PowerTimer derives power from resource utilization statistics);
:class:`SimulationResult` bundles them with timing and — once the power
model has run — the watts breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ActivityCounts:
    """Event counts accumulated by one simulation."""

    instructions: int = 0
    cycles: int = 0
    # issue events by class
    int_ops: int = 0
    int_mul_ops: int = 0
    fp_ops: int = 0
    fp_div_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicts: int = 0
    # register file traffic
    gpr_reads: int = 0
    gpr_writes: int = 0
    fpr_reads: int = 0
    fpr_writes: int = 0
    # prefetching
    prefetch_covered: int = 0   #: demand misses hidden by the prefetcher
    # memory hierarchy traffic
    il1_accesses: int = 0
    il1_misses: int = 0
    dl1_accesses: int = 0
    dl1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    memory_accesses: int = 0

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def dl1_miss_rate(self) -> float:
        return self.dl1_misses / self.dl1_accesses if self.dl1_accesses else 0.0

    @property
    def il1_miss_rate(self) -> float:
        return self.il1_misses / self.il1_accesses if self.il1_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class SimulationResult:
    """Outcome of simulating one trace on one machine configuration."""

    benchmark: str
    cycles: int
    instructions: int
    frequency_ghz: float
    counts: ActivityCounts
    ref_instructions: float = 1e9
    watts: Optional[float] = None
    power_breakdown: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError(f"cycles must be positive, got {self.cycles}")
        if self.instructions <= 0:
            raise ValueError(
                f"instructions must be positive, got {self.instructions}"
            )
        if self.frequency_ghz <= 0:
            raise ValueError(
                f"frequency must be positive, got {self.frequency_ghz}"
            )

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles

    @property
    def bips(self) -> float:
        """Billions of instructions per second — the paper's rate metric."""
        return self.ipc * self.frequency_ghz

    @property
    def delay_seconds(self) -> float:
        """End-to-end delay for the benchmark's notional full run."""
        return self.ref_instructions / (self.bips * 1e9)

    @property
    def bips3_per_watt(self) -> float:
        """The paper's voltage-invariant efficiency metric, bips^3/w."""
        if self.watts is None:
            raise ValueError(
                "power has not been evaluated for this result; "
                "run it through a PowerModel first"
            )
        return self.bips**3 / self.watts

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly flattening of the result.

        Campaign artifacts do not use it: they store only each design's
        (bips, watts) columns.
        """
        payload: Dict[str, object] = {
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "frequency_ghz": self.frequency_ghz,
            "ref_instructions": self.ref_instructions,
            "bips": self.bips,
            "watts": self.watts,
            "counts": self.counts.as_dict(),
            "power_breakdown": dict(self.power_breakdown),
        }
        return payload
