"""Voltage-frequency scaling and the bips^3/w invariance claim.

Footnote 2 of the paper: ``bips^3/w`` is "a voltage invariant
power-performance metric derived from the cubic relationship between power
and voltage" [2].  The argument: above threshold, frequency scales ~V and
dynamic power ~C V^2 f ~ V^3, so scaling voltage by ``k`` multiplies bips
by ``k`` and power by ``k^3`` — leaving bips^3/w fixed — while simpler
metrics (bips/w, bips^2/w) shift with the operating point.

In practice leakage scales far more gently than V^3, so the invariance is
approximate; this module quantifies exactly how approximate, given our
power model's dynamic/static split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from . import structures
from .powertimer import PowerModel

if TYPE_CHECKING:  # imported lazily to avoid a cycle with simulator.config
    from ..simulator.config import MachineConfig
    from ..simulator.results import SimulationResult


class VoltageError(ValueError):
    """Raised for non-physical scaling requests."""


#: Exponent of frequency (and bips) in supply voltage.
FREQUENCY_EXPONENT = 1.0

#: Exponent of dynamic power in supply voltage (C V^2 f).
DYNAMIC_EXPONENT = 3.0

#: Effective exponent of leakage power in supply voltage (sub-cubic:
#: subthreshold leakage grows with V but not with switching activity).
STATIC_EXPONENT = 1.0


@dataclass(frozen=True)
class OperatingPoint:
    """One voltage-scaled view of a simulated design."""

    voltage_scale: float
    bips: float
    watts: float
    dynamic_watts: float
    static_watts: float

    @property
    def bips_per_watt(self) -> float:
        return self.bips / self.watts

    @property
    def bips2_per_watt(self) -> float:
        return self.bips**2 / self.watts

    @property
    def bips3_per_watt(self) -> float:
        return self.bips**3 / self.watts


def split_power(config: MachineConfig, result: SimulationResult) -> Dict[str, float]:
    """Total watts split into dynamic and static parts."""
    breakdown = PowerModel().breakdown(config, result.counts)
    static = sum(structures.static_power(config).values())
    total = breakdown.total
    static = min(static, total)  # guard: static can never exceed total
    return {"dynamic": total - static, "static": static, "total": total}


def scale_operating_point(
    config: MachineConfig,
    result: SimulationResult,
    voltage_scale: float,
) -> OperatingPoint:
    """The design's performance/power at a scaled supply voltage."""
    if voltage_scale <= 0:
        raise VoltageError(f"voltage scale must be positive, got {voltage_scale}")
    parts = split_power(config, result)
    k = voltage_scale
    dynamic = parts["dynamic"] * k**DYNAMIC_EXPONENT
    static = parts["static"] * k**STATIC_EXPONENT
    return OperatingPoint(
        voltage_scale=k,
        bips=result.bips * k**FREQUENCY_EXPONENT,
        watts=dynamic + static,
        dynamic_watts=dynamic,
        static_watts=static,
    )


@dataclass
class InvarianceStudy:
    """Metric spreads over a voltage sweep (max/min ratio per metric)."""

    points: List[OperatingPoint]
    spreads: Dict[str, float]


def invariance_study(
    config: MachineConfig,
    result: SimulationResult,
    voltage_scales: Sequence[float] = (0.8, 0.9, 1.0, 1.1, 1.2),
) -> InvarianceStudy:
    """Sweep voltage and measure each metric's spread.

    A perfectly voltage-invariant metric has spread 1.0; bips^3/w should
    come far closer to it than bips/w or bips^2/w, deviating only through
    the leakage fraction.
    """
    if not voltage_scales:
        raise VoltageError("need at least one voltage scale")
    points = [scale_operating_point(config, result, k) for k in voltage_scales]

    def spread(metric: str) -> float:
        values = [getattr(p, metric) for p in points]
        return max(values) / min(values)

    return InvarianceStudy(
        points=points,
        spreads={
            "bips_per_watt": spread("bips_per_watt"),
            "bips2_per_watt": spread("bips2_per_watt"),
            "bips3_per_watt": spread("bips3_per_watt"),
        },
    )
