"""Workload profiles.

A :class:`WorkloadProfile` is the statistical description of one benchmark:
instruction mix, dependence structure (ILP), branch behaviour, data and
instruction locality.  The synthetic trace generator realizes a profile as
a concrete trace; the nine-benchmark suite in :mod:`repro.workloads.suite`
tunes one profile per paper benchmark.

These profiles substitute for the paper's proprietary sampled PowerPC
traces (Section 2.2).  They are chosen so that each benchmark exhibits the
qualitative character the paper reports — e.g. mcf is memory-bound with a
multi-megabyte working set, gzip is compute-bound with a small footprint,
mesa has abundant instruction-level parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .trace import OP_CODES


class ProfileError(ValueError):
    """Raised for inconsistent profile definitions."""


#: A reuse stratum: (probability mass, upper reuse-distance limit in
#: blocks).  Distances within a stratum are log-uniform between the
#: previous stratum's limit and this one's.
ReuseStrata = Tuple[Tuple[float, float], ...]


def validate_strata(name: str, label: str, strata: ReuseStrata) -> None:
    """Check a reuse-distance specification is a proper distribution."""
    if not strata:
        raise ProfileError(f"{name}: {label} must have at least one stratum")
    total = sum(weight for weight, _ in strata)
    if abs(total - 1.0) > 1e-9:
        raise ProfileError(f"{name}: {label} weights sum to {total}, expected 1.0")
    previous = 0.0
    for weight, limit in strata:
        if weight < 0:
            raise ProfileError(f"{name}: {label} has a negative weight")
        if limit <= previous:
            raise ProfileError(
                f"{name}: {label} limits must be strictly increasing "
                f"({limit} after {previous})"
            )
        previous = limit


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of a benchmark program.

    Attributes
    ----------
    name, description:
        Identification; ``name`` keys caches and results.
    mix:
        Op-class name -> fraction of dynamic instructions.  Must sum to 1.
    dep_distance_mean:
        Mean register-dependence distance (geometric).  Larger values mean
        producers sit further back, exposing more instruction-level
        parallelism to a wide window.
    second_operand_rate:
        Probability an instruction carries a second register source.
    load_chain_rate:
        Probability a load's address depends on the previous load
        (pointer chasing; serializes the memory stream as in mcf).
    branch_bias:
        Outcome persistence of *biased* static branches: the probability a
        branch repeats its previous outcome.  A last-outcome (1-bit BHT)
        predictor's accuracy on such a site equals this persistence.
    unpredictable_rate:
        Fraction of static branches that are essentially random (p=0.5).
    static_branches:
        Number of distinct static branch sites.
    data_reuse_strata:
        LRU stack-distance distribution of data accesses, as
        (weight, limit-in-blocks) strata; determines the benchmark's
        miss-rate-versus-cache-size curve (its cacheability signature).
    instr_reuse_strata:
        Reuse-distance distribution of instruction fetch blocks; the
        i-cache analogue of ``data_reuse_strata``.
    ifetch_run_mean:
        Mean dynamic instructions fetched before crossing into a new fetch
        block (sequential run length of the front end).
    data_footprint_blocks:
        Distinct 128-byte data blocks the benchmark touches.
    data_zipf:
        Zipf popularity exponent over data blocks; higher = hotter hot set
        = better cacheability.
    sequential_run_mean:
        Mean length of sequential block runs in the data stream (spatial
        locality / streaming behaviour).
    instr_footprint_blocks:
        Distinct 128-byte instruction blocks (static code size proxy).
    loop_length_mean:
        Mean loop body length in instruction blocks.
    loop_iterations_mean:
        Mean iterations per loop visit; large values concentrate fetch in
        small regions (i-cache friendly).
    ref_instructions:
        Notional full-run dynamic instruction count; converts simulated
        instruction rate into end-to-end delay seconds, the paper's delay
        axis.
    """

    name: str
    description: str
    mix: Dict[str, float]
    dep_distance_mean: float
    second_operand_rate: float
    load_chain_rate: float
    branch_bias: float
    unpredictable_rate: float
    static_branches: int
    data_reuse_strata: ReuseStrata
    instr_reuse_strata: ReuseStrata
    ifetch_run_mean: float
    data_footprint_blocks: int
    data_zipf: float
    sequential_run_mean: float
    instr_footprint_blocks: int
    loop_length_mean: float
    loop_iterations_mean: float
    ref_instructions: float
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("profile name must be non-empty")
        unknown = set(self.mix) - set(OP_CODES)
        if unknown:
            raise ProfileError(f"{self.name}: unknown op classes {sorted(unknown)}")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ProfileError(f"{self.name}: mix sums to {total}, expected 1.0")
        if any(v < 0 for v in self.mix.values()):
            raise ProfileError(f"{self.name}: negative mix fraction")
        if self.dep_distance_mean < 1:
            raise ProfileError(f"{self.name}: dep_distance_mean must be >= 1")
        for label, value in (
            ("second_operand_rate", self.second_operand_rate),
            ("load_chain_rate", self.load_chain_rate),
            ("unpredictable_rate", self.unpredictable_rate),
        ):
            if not 0 <= value <= 1:
                raise ProfileError(f"{self.name}: {label} must be in [0, 1]")
        if not 0.5 <= self.branch_bias <= 1:
            raise ProfileError(f"{self.name}: branch_bias must be in [0.5, 1]")
        if self.static_branches < 1:
            raise ProfileError(f"{self.name}: needs at least one static branch")
        validate_strata(self.name, "data_reuse_strata", self.data_reuse_strata)
        validate_strata(self.name, "instr_reuse_strata", self.instr_reuse_strata)
        if self.ifetch_run_mean < 1:
            raise ProfileError(f"{self.name}: ifetch_run_mean must be >= 1")
        if self.data_footprint_blocks < 1 or self.instr_footprint_blocks < 1:
            raise ProfileError(f"{self.name}: footprints must be positive")
        if self.data_zipf < 0:
            raise ProfileError(f"{self.name}: data_zipf must be non-negative")
        if self.sequential_run_mean < 1:
            raise ProfileError(f"{self.name}: sequential_run_mean must be >= 1")
        if self.loop_length_mean < 1 or self.loop_iterations_mean < 1:
            raise ProfileError(f"{self.name}: loop shape parameters must be >= 1")
        if self.ref_instructions <= 0:
            raise ProfileError(f"{self.name}: ref_instructions must be positive")

    def data_miss_rate(self, capacity_blocks: float) -> float:
        """Expected data miss rate of an LRU cache of ``capacity_blocks``."""
        return reuse_survival(self.data_reuse_strata, capacity_blocks)

    def instr_miss_rate(self, capacity_blocks: float) -> float:
        """Expected fetch-block miss rate at ``capacity_blocks``."""
        return reuse_survival(self.instr_reuse_strata, capacity_blocks)


def reuse_survival(strata: ReuseStrata, capacity_blocks: float) -> float:
    """P(reuse distance >= capacity) under a log-uniform strata model.

    This is the analytical miss-rate curve implied by a profile's reuse
    distribution; the stack-distance memory model realizes it empirically.
    """
    if capacity_blocks <= 0:
        return 1.0
    survival = 0.0
    previous = 1.0  # distances start at 1 block
    for weight, limit in strata:
        lo, hi = previous, limit
        if capacity_blocks <= lo:
            survival += weight
        elif capacity_blocks < hi:
            span = math.log(hi) - math.log(lo)
            if span > 0:
                survival += weight * (math.log(hi) - math.log(capacity_blocks)) / span
        previous = limit
    return survival
