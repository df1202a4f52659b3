"""Machine configuration.

A :class:`MachineConfig` resolves a design point (plus fixed baseline
choices such as associativities and technology constants) into everything
the timing and power models need: stage counts, clock frequency, per-op
latencies in cycles, queue/register capacities and cache geometry.

The Table 3 POWER4-like baseline is exposed both as a literal config
(:func:`baseline_config`) and as a design point snapped onto the Table 1
grid (:func:`baseline_point`) for the constrained pipeline-depth study.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..designspace import DesignPoint, DesignSpace
from ..power import cacti
from ..workloads.trace import (
    OP_BRANCH,
    OP_FP,
    OP_FP_DIV,
    OP_INT,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
)
from . import frequency


class ConfigError(ValueError):
    """Raised for inconsistent machine configurations."""


#: Logic depth (FO4) of each operation class; cycles follow from depth.
#: Values avoid coincident cycle-count steps across the explored depth
#: range (latency quantization artifacts in the depth study).
OP_LOGIC_FO4: Dict[int, float] = {
    OP_INT: 12.0,
    OP_INT_MUL: 105.0,
    OP_FP: 125.0,
    OP_FP_DIV: 460.0,
    OP_LOAD: 12.0,   # address generation; cache latency added separately
    OP_STORE: 12.0,
    OP_BRANCH: 12.0,
}

#: Architected register counts; rename registers beyond these are free.
ARCHITECTED_GPR = 36
ARCHITECTED_FPR = 32

#: Reorder-buffer (completion table) capacity.  The paper does not vary it;
#: it is sized so physical registers and queues are the binding window
#: limits, as in Turandot.
ROB_SIZE = 256


@dataclass(frozen=True)
class MachineConfig:
    """Fully resolved machine parameters for one design.

    Primary design parameters mirror Table 1; the remaining fields are the
    fixed baseline choices of Table 3 (associativities, ROB and MSHR
    counts) and the technology-derived quantities (frequency, stage
    counts, latencies).
    """

    # -- Table 1 design parameters ----------------------------------------
    depth_fo4: float
    width: int
    ls_queue: int
    store_queue: int
    functional_units: int
    gpr_phys: int
    fpr_phys: int
    spr_phys: int
    br_resv: int
    fx_resv: int
    fp_resv: int
    il1_kb: float
    dl1_kb: float
    l2_mb: float

    # -- fixed baseline structure (Table 3) --------------------------------
    il1_assoc: int = 1
    dl1_assoc: int = 2
    l2_assoc: int = 4
    rob_size: int = ROB_SIZE
    mshr_count: int = 16
    in_order: bool = False
    prefetch: bool = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if self.functional_units < 1:
            raise ConfigError("functional unit count must be >= 1")
        if self.gpr_phys <= ARCHITECTED_GPR:
            raise ConfigError(
                f"gpr_phys={self.gpr_phys} leaves no rename registers "
                f"(architected {ARCHITECTED_GPR})"
            )
        if self.fpr_phys <= ARCHITECTED_FPR:
            raise ConfigError(
                f"fpr_phys={self.fpr_phys} leaves no rename registers "
                f"(architected {ARCHITECTED_FPR})"
            )
        for label, value in (
            ("ls_queue", self.ls_queue),
            ("store_queue", self.store_queue),
            ("br_resv", self.br_resv),
            ("fx_resv", self.fx_resv),
            ("fp_resv", self.fp_resv),
            ("rob_size", self.rob_size),
            ("mshr_count", self.mshr_count),
        ):
            if value < 1:
                raise ConfigError(f"{label} must be >= 1, got {value}")
        frequency.cycle_time_ps(self.depth_fo4)  # validates the depth

    # -- derived timing ----------------------------------------------------

    @property
    def frequency_ghz(self) -> float:
        return frequency.frequency_ghz(self.depth_fo4)

    @property
    def frontend_stages(self) -> int:
        return frequency.frontend_stages(self.depth_fo4)

    @property
    def total_stages(self) -> int:
        return frequency.total_stages(self.depth_fo4)

    @property
    def dispatch_rate(self) -> int:
        """Dispatch bandwidth: 2w+1 (9/cycle at the 4-wide baseline)."""
        return 2 * self.width + 1

    @property
    def gpr_rename(self) -> int:
        """Free integer rename registers."""
        return self.gpr_phys - ARCHITECTED_GPR

    @property
    def fpr_rename(self) -> int:
        """Free floating-point rename registers."""
        return self.fpr_phys - ARCHITECTED_FPR

    def op_latency(self, op: int) -> int:
        """Execution latency in cycles for a non-memory op class."""
        return frequency.latency_cycles(OP_LOGIC_FO4[op], self.depth_fo4)

    @property
    def dl1_latency(self) -> int:
        return frequency.ns_to_cycles(
            cacti.access_time_ns(self.dl1_kb, self.dl1_assoc), self.depth_fo4
        )

    @property
    def l2_latency(self) -> int:
        return frequency.ns_to_cycles(
            cacti.access_time_ns(self.l2_mb * 1024.0, self.l2_assoc),
            self.depth_fo4,
        )

    @property
    def memory_latency(self) -> int:
        return frequency.ns_to_cycles(cacti.MEMORY_LATENCY_NS, self.depth_fo4)

    def data_latency(self, level: str) -> int:
        """Load-to-use latency in cycles for the level servicing a load."""
        if level == "l1":
            return self.dl1_latency
        if level == "l2":
            return self.dl1_latency + self.l2_latency
        if level == "mem":
            return self.dl1_latency + self.l2_latency + self.memory_latency
        raise ConfigError(f"unknown memory level {level!r}")

    def fetch_penalty(self, level: str) -> int:
        """Extra fetch cycles when the i-L1 misses to ``level``."""
        if level == "l1":
            return 0
        if level == "l2":
            return self.l2_latency
        if level == "mem":
            return self.l2_latency + self.memory_latency
        raise ConfigError(f"unknown memory level {level!r}")

    def with_overrides(self, **overrides) -> "MachineConfig":
        """Copy with some fields replaced (ablation hooks)."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, float]:
        """Flat summary used by tables and result metadata."""
        return {
            "depth_fo4": self.depth_fo4,
            "width": self.width,
            "frequency_ghz": round(self.frequency_ghz, 3),
            "frontend_stages": self.frontend_stages,
            "total_stages": self.total_stages,
            "gpr_phys": self.gpr_phys,
            "fpr_phys": self.fpr_phys,
            "br_resv": self.br_resv,
            "fx_resv": self.fx_resv,
            "fp_resv": self.fp_resv,
            "ls_queue": self.ls_queue,
            "store_queue": self.store_queue,
            "functional_units": self.functional_units,
            "il1_kb": self.il1_kb,
            "dl1_kb": self.dl1_kb,
            "l2_mb": self.l2_mb,
            "dl1_latency": self.dl1_latency,
            "l2_latency": self.l2_latency,
            "memory_latency": self.memory_latency,
        }


def config_from_point(space: DesignSpace, point: DesignPoint) -> MachineConfig:
    """Resolve a design point of ``space`` into a machine configuration.

    Extension parameters (``dl1_assoc``, ``in_order``) are honoured when the
    space defines them; :meth:`MachineConfig.with_overrides` sets any other
    field.
    """
    settings = space.machine_settings(point)
    kwargs = {
        "depth_fo4": float(settings["depth"]),
        "width": int(settings["width"]),
        "ls_queue": int(settings["ls_queue"]),
        "store_queue": int(settings["store_queue"]),
        "functional_units": int(settings["functional_units"]),
        "gpr_phys": int(settings["gpr_phys"]),
        "fpr_phys": int(settings["fpr_phys"]),
        "spr_phys": int(settings["spr_phys"]),
        "br_resv": int(settings["br_resv"]),
        "fx_resv": int(settings["fx_resv"]),
        "fp_resv": int(settings["fp_resv"]),
        "il1_kb": float(settings["il1_kb"]),
        "dl1_kb": float(settings["dl1_kb"]),
        "l2_mb": float(settings["l2_mb"]),
    }
    if "dl1_assoc" in settings:
        kwargs["dl1_assoc"] = int(settings["dl1_assoc"])
    if "in_order" in settings:
        kwargs["in_order"] = bool(settings["in_order"])
    return MachineConfig(**kwargs)


#: Table 3 baseline expressed as raw settings (19 FO4, 4-wide POWER4-like).
BASELINE_SETTINGS: Dict[str, float] = {
    "depth": 19.0,
    "width": 4,
    "gpr_phys": 80,
    "br_resv": 12,
    "il1_kb": 64.0,
    "dl1_kb": 32.0,
    "l2_mb": 2.0,
}


def baseline_config() -> MachineConfig:
    """The literal Table 3 machine (19 FO4; not on the Table 1 grid)."""
    return MachineConfig(
        depth_fo4=19.0,
        width=4,
        ls_queue=30,
        store_queue=28,
        functional_units=2,
        gpr_phys=80,
        fpr_phys=72,
        spr_phys=66,
        br_resv=12,
        fx_resv=22,
        fp_resv=11,
        il1_kb=64.0,
        dl1_kb=32.0,
        l2_mb=2.0,
    )


def baseline_point(space: DesignSpace) -> DesignPoint:
    """Table 3 baseline snapped onto ``space``'s grid (depth 19 -> 18 FO4)."""
    return space.snap(
        depth=BASELINE_SETTINGS["depth"],
        width=BASELINE_SETTINGS["width"],
        gpr_phys=BASELINE_SETTINGS["gpr_phys"],
        br_resv=BASELINE_SETTINGS["br_resv"],
        il1_kb=BASELINE_SETTINGS["il1_kb"],
        dl1_kb=BASELINE_SETTINGS["dl1_kb"],
        l2_mb=BASELINE_SETTINGS["l2_mb"],
    )
