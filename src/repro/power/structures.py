"""Per-structure power models.

Each function returns watts for one microarchitectural structure given a
block of machine configurations and the block's activity counts, one
value per design.  ``config`` is a resolved block
(:class:`~repro.simulator.config.ConfigColumns`) and ``counts`` holds one
int64 column per :class:`~repro.simulator.results.ActivityCounts` field
the models read (:data:`ACTIVITY_FIELDS`); a single design is a block of
one.  Dynamic power is ``energy/event x events/second``; nanojoules times
gigahertz conveniently yields watts.  Structures with significant standby
components (clock tree, arrays) carry explicit idle/leakage terms.

Every factor that depends on the configuration alone (width scaling,
latch counts, square roots, array energies and leakage) comes from its
scalar function, evaluated once per distinct value in the block
(:meth:`~repro.simulator.config.ConfigColumns.per_distinct`).  The terms
that involve activity use only ``+ - * /`` on float64 columns, in the
order written here, so every design's watts are bitwise what the same
arithmetic gives on python floats, whatever block it rides in.

Constants are calibrated so the POWER4-like baseline of Table 3 lands in
the tens of watts and the 12 FO4 / 8-wide corner of the space reaches the
~150W the paper's Figure 2 shows, with the correct *relative* scaling in
depth, width and array sizes (see DESIGN.md on substitutions).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import cacti, scaling

if TYPE_CHECKING:  # imported lazily to avoid a cycle with simulator.config
    from types import SimpleNamespace

    from ..simulator.config import ConfigColumns, MachineConfig

#: The activity counts the structure models read.
ACTIVITY_FIELDS = (
    "instructions", "cycles", "mispredicts", "branches",
    "int_ops", "int_mul_ops", "fp_ops", "fp_div_ops", "loads", "stores",
    "gpr_reads", "gpr_writes", "fpr_reads", "fpr_writes",
    "il1_accesses", "dl1_accesses", "l2_accesses", "memory_accesses",
)

# -- energy constants (nanojoules per event at the reference width) --------

ENERGY_NJ = {
    "decode": 0.9,
    "rename": 1.1,
    "int_op": 2.0,
    "int_mul_op": 5.0,
    "fp_op": 6.0,
    "fp_div_op": 12.0,
    "agen_op": 2.5,
    "branch_op": 1.0,
    "regfile_access": 0.235,  # per sqrt(entry) — see regfile_power
    "issue_wakeup": 0.010,    # per queue entry searched
    "lsq_search": 0.020,      # per queue entry searched
    "predictor_access": 0.15,
}

#: Watts per latch per GHz (clock distribution + latch hold power).
CLOCK_W_PER_LATCH_GHZ = 0.0018

#: Idle (clock-gated floor) fraction of each array's peak dynamic power.
ARRAY_IDLE_FRACTION = 0.10

#: Core leakage per functional unit (watts).
FU_LEAKAGE_W = 0.35

#: Fixed platform leakage (watts): pads, PLLs, misc control.
BASE_LEAKAGE_W = 4.0

#: Leakage per physical register (watts).
REGISTER_LEAKAGE_W = 0.004

#: Leakage per queue entry (reservation stations, LSQ) in watts.
QUEUE_LEAKAGE_W = 0.006


def _per_second(
    events: np.ndarray, counts: SimpleNamespace, f_ghz: np.ndarray
) -> np.ndarray:
    """Events per nanosecond (== events/cycle * GHz); 0 where no cycle ran."""
    cycles = counts.cycles
    activity = np.divide(
        events, cycles, out=np.zeros(cycles.shape), where=cycles != 0
    )
    return activity * f_ghz


def _width_scale(config: ConfigColumns, exponent: float) -> np.ndarray:
    return config.per_distinct(
        lambda c: scaling.width_scale(c.width, exponent), "width"
    )


def clock_power(config: ConfigColumns) -> np.ndarray:
    """Clock tree + pipeline latch power; the depth-sensitive term."""
    latches = config.per_distinct(
        lambda c: scaling.latch_count(c.depth_fo4, c.width), "depth_fo4", "width"
    )
    return CLOCK_W_PER_LATCH_GHZ * latches * config.frequency_ghz


def frontend_power(config: ConfigColumns, counts: SimpleNamespace) -> np.ndarray:
    """Fetch/decode/rename energy; mildly superlinear in width.

    Includes wrong-path waste: each mispredict flushes a front end holding
    roughly ``stages x width / 2`` instructions whose fetch/decode energy
    was spent for nothing — a penalty that grows with pipeline depth and
    width, as in PowerTimer's speculative-work accounting.
    """
    f = config.frequency_ghz
    scale = _width_scale(config, scaling.FRONTEND_EXPONENT)
    wasted = counts.mispredicts * config.frontend_stages * config.width * 0.5
    events = counts.instructions + wasted
    decode = ENERGY_NJ["decode"] * _per_second(events, counts, f)
    rename = ENERGY_NJ["rename"] * _per_second(events, counts, f)
    predictor = ENERGY_NJ["predictor_access"] * _per_second(counts.branches, counts, f)
    return (decode + rename) * scale + predictor


def regfile_power(config: ConfigColumns, counts: SimpleNamespace) -> np.ndarray:
    """Multi-ported register files; the strongest width-superlinear term."""
    f = config.frequency_ghz
    scale = _width_scale(config, scaling.PORTED_EXPONENT)
    gpr_root = config.per_distinct(lambda c: c.gpr_phys**0.5, "gpr_phys")
    fpr_root = config.per_distinct(lambda c: c.fpr_phys**0.5, "fpr_phys")
    e_gpr = ENERGY_NJ["regfile_access"] * gpr_root * scale
    e_fpr = ENERGY_NJ["regfile_access"] * fpr_root * scale
    gpr_events = counts.gpr_reads + counts.gpr_writes
    fpr_events = counts.fpr_reads + counts.fpr_writes
    dynamic = e_gpr * _per_second(gpr_events, counts, f)
    dynamic += e_fpr * _per_second(fpr_events, counts, f)
    leakage = REGISTER_LEAKAGE_W * (
        config.gpr_phys + config.fpr_phys + config.spr_phys
    )
    return dynamic + leakage


def issue_queue_power(config: ConfigColumns, counts: SimpleNamespace) -> np.ndarray:
    """Reservation-station wakeup/select; broadcast cost grows with width."""
    f = config.frequency_ghz
    scale = _width_scale(config, scaling.BROADCAST_EXPONENT)
    e = ENERGY_NJ["issue_wakeup"] * scale
    int_events = counts.int_ops + counts.int_mul_ops
    fp_events = counts.fp_ops + counts.fp_div_ops
    dynamic = e * config.fx_resv * _per_second(int_events, counts, f)
    dynamic += e * config.fp_resv * _per_second(fp_events, counts, f)
    dynamic += e * config.br_resv * _per_second(counts.branches, counts, f)
    leakage = QUEUE_LEAKAGE_W * (config.fx_resv + config.fp_resv + config.br_resv)
    return dynamic + leakage


def lsq_power(config: ConfigColumns, counts: SimpleNamespace) -> np.ndarray:
    """Load/store queue CAM search per memory operation."""
    f = config.frequency_ghz
    events = counts.loads + counts.stores
    dynamic = ENERGY_NJ["lsq_search"] * config.ls_queue * _per_second(events, counts, f)
    leakage = QUEUE_LEAKAGE_W * (config.ls_queue + config.store_queue)
    return dynamic + leakage


def fu_power(config: ConfigColumns, counts: SimpleNamespace) -> np.ndarray:
    """Functional units: near-linear in width thanks to clustering."""
    f = config.frequency_ghz
    scale = _width_scale(config, scaling.CLUSTERED_EXPONENT)
    dynamic = (
        ENERGY_NJ["int_op"] * _per_second(counts.int_ops, counts, f)
        + ENERGY_NJ["int_mul_op"] * _per_second(counts.int_mul_ops, counts, f)
        + ENERGY_NJ["fp_op"] * _per_second(counts.fp_ops, counts, f)
        + ENERGY_NJ["fp_div_op"] * _per_second(counts.fp_div_ops, counts, f)
        + ENERGY_NJ["agen_op"] * _per_second(counts.loads + counts.stores, counts, f)
        + ENERGY_NJ["branch_op"] * _per_second(counts.branches, counts, f)
    ) * scale
    # 4 unit classes (FXU/FPU/LSU/BR), `functional_units` of each.
    leakage = FU_LEAKAGE_W * 4 * config.functional_units
    return dynamic + leakage


def _array_power(
    energy: np.ndarray,
    leakage: np.ndarray,
    accesses: np.ndarray,
    counts: SimpleNamespace,
    f_ghz: np.ndarray,
) -> np.ndarray:
    """Dynamic + idle + leakage power of one cache array."""
    dynamic = energy * _per_second(accesses, counts, f_ghz)
    idle = ARRAY_IDLE_FRACTION * energy * f_ghz  # gated clock floor
    return dynamic + idle + leakage


def _array(size_kb: float, assoc: int) -> tuple:
    """(access energy, leakage) of one cache array."""
    return cacti.access_energy_nj(size_kb, assoc), cacti.leakage_w(size_kb)


def cache_power(config: ConfigColumns, counts: SimpleNamespace) -> np.ndarray:
    """All three cache arrays plus the memory interface."""
    f = config.frequency_ghz
    il1 = config.per_distinct(
        lambda c: _array(c.il1_kb, c.il1_assoc), "il1_kb", "il1_assoc"
    )
    dl1 = config.per_distinct(
        lambda c: _array(c.dl1_kb, c.dl1_assoc), "dl1_kb", "dl1_assoc"
    )
    l2 = config.per_distinct(
        lambda c: _array(c.l2_mb * 1024.0, c.l2_assoc), "l2_mb", "l2_assoc"
    )
    total = _array_power(*il1, counts.il1_accesses, counts, f)
    total += _array_power(*dl1, counts.dl1_accesses, counts, f)
    total += _array_power(*l2, counts.l2_accesses, counts, f)
    total += cacti.MEMORY_ACCESS_ENERGY_NJ * _per_second(
        counts.memory_accesses, counts, f
    )
    return total


def base_leakage(config: ConfigColumns) -> np.ndarray:
    """Fixed platform leakage."""
    return np.full(len(config), BASE_LEAKAGE_W)


def static_power(config: MachineConfig) -> dict:
    """Leakage-only watts per structure (no activity dependence).

    Used to split each structure's total into dynamic and static parts —
    the two scale differently under voltage scaling (~V^3 with frequency
    versus ~V), which is what limits the bips^3/w metric's voltage
    invariance in practice.
    """
    return {
        "clock": 0.0,  # clock tree power is all switching
        "frontend": 0.0,
        "regfile": REGISTER_LEAKAGE_W
        * (config.gpr_phys + config.fpr_phys + config.spr_phys),
        "issue_queues": QUEUE_LEAKAGE_W
        * (config.fx_resv + config.fp_resv + config.br_resv),
        "lsq": QUEUE_LEAKAGE_W * (config.ls_queue + config.store_queue),
        "functional_units": FU_LEAKAGE_W * 4 * config.functional_units,
        "caches": (
            cacti.leakage_w(config.il1_kb)
            + cacti.leakage_w(config.dl1_kb)
            + cacti.leakage_w(config.l2_mb * 1024.0)
        ),
        "base_leakage": BASE_LEAKAGE_W,
    }
