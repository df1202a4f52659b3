"""The nine-benchmark suite (Section 2.2).

One profile per paper benchmark: SPECjbb plus eight SPEC2000 programs
(ammp, applu, equake, gcc, gzip, mcf, mesa, twolf).  Parameters are tuned
so each benchmark reproduces its qualitative character from the paper:

- **ammp** — FP with good ILP and a cacheable multi-MB hot set.
- **applu / equake** — FP streaming codes with little reuse; the smallest
  caches are efficiency-optimal for them in Table 2.
- **gcc** — branchy integer code, low ILP, large instruction footprint.
- **gzip** — compute-bound integer code with a tiny working set.
- **jbb** — server workload: large code footprint, decent parallelism.
- **mcf** — memory-bound pointer chasing over a ~16MB working set; the only
  benchmark whose Table 2 optimum carries a 4MB L2 (Figure 2 shows its
  delay collapsing from 5.3s to 1.9s as L2 grows 0.25 -> 4MB).
- **mesa** — abundant ILP, modest data set, large code footprint.
- **twolf** — moderate integer code with a ~1MB working set.

Reuse strata are (probability, limit-in-128B-blocks) pairs — the
benchmark's miss-rate-versus-capacity signature.  For orientation within
the Table 1 space: d-L1 spans 64..1024 blocks (8..128KB), i-L1 spans
128..2048 blocks (16..256KB) and L2 spans 2048..32768 blocks (0.25..4MB).
``ref_instructions`` are notional full-run dynamic instruction counts used
to convert instruction rate into end-to-end delay seconds.
"""

from __future__ import annotations

from typing import Dict

from .profile import WorkloadProfile

AMMP = WorkloadProfile(
    name="ammp",
    description="SPEC2000 FP: molecular dynamics; good ILP, cacheable hot set",
    mix={"fp": 0.32, "fp_div": 0.02, "int": 0.22, "load": 0.26, "store": 0.10,
         "branch": 0.08},
    dep_distance_mean=14.0,
    second_operand_rate=0.50,
    load_chain_rate=0.04,
    branch_bias=0.94,
    unpredictable_rate=0.08,
    static_branches=256,
    data_reuse_strata=((0.90, 40), (0.06, 800), (0.03, 12000), (0.01, 100000)),
    instr_reuse_strata=((0.97, 24), (0.03, 180)),
    ifetch_run_mean=12.0,
    data_footprint_blocks=24576,  # ~3MB
    data_zipf=1.10,
    sequential_run_mean=4.0,
    instr_footprint_blocks=200,
    loop_length_mean=8.0,
    loop_iterations_mean=50.0,
    ref_instructions=2.5e9,
)

APPLU = WorkloadProfile(
    name="applu",
    description="SPEC2000 FP: PDE solver; streaming with little reuse",
    mix={"fp": 0.35, "fp_div": 0.03, "int": 0.18, "load": 0.27, "store": 0.09,
         "branch": 0.08},
    dep_distance_mean=12.5,
    second_operand_rate=0.55,
    load_chain_rate=0.016,
    branch_bias=0.96,
    unpredictable_rate=0.05,
    static_branches=128,
    data_reuse_strata=((0.55, 32), (0.05, 1024), (0.02, 40000), (0.38, 500000)),
    instr_reuse_strata=((0.98, 16), (0.02, 110)),
    ifetch_run_mean=14.0,
    data_footprint_blocks=65536,  # ~8MB
    data_zipf=0.20,
    sequential_run_mean=24.0,
    instr_footprint_blocks=120,
    loop_length_mean=6.0,
    loop_iterations_mean=80.0,
    ref_instructions=2.2e9,
)

EQUAKE = WorkloadProfile(
    name="equake",
    description="SPEC2000 FP: earthquake simulation; streaming, sparse",
    mix={"fp": 0.30, "fp_div": 0.02, "int": 0.20, "load": 0.30, "store": 0.08,
         "branch": 0.10},
    dep_distance_mean=10.0,
    second_operand_rate=0.50,
    load_chain_rate=0.06,
    branch_bias=0.94,
    unpredictable_rate=0.08,
    static_branches=192,
    data_reuse_strata=((0.50, 40), (0.10, 1024), (0.08, 16000), (0.32, 300000)),
    instr_reuse_strata=((0.96, 32), (0.04, 300)),
    ifetch_run_mean=12.0,
    data_footprint_blocks=49152,  # ~6MB
    data_zipf=0.35,
    sequential_run_mean=12.0,
    instr_footprint_blocks=320,
    loop_length_mean=10.0,
    loop_iterations_mean=40.0,
    ref_instructions=2.0e9,
)

GCC = WorkloadProfile(
    name="gcc",
    description="SPEC2000 INT: compiler; branchy, low ILP, big code",
    mix={"int": 0.45, "int_mul": 0.02, "load": 0.24, "store": 0.11,
         "branch": 0.18},
    dep_distance_mean=3.6,
    second_operand_rate=0.45,
    load_chain_rate=0.12,
    branch_bias=0.90,
    unpredictable_rate=0.30,
    static_branches=2048,
    data_reuse_strata=((0.70, 56), (0.15, 700), (0.12, 6000), (0.03, 60000)),
    instr_reuse_strata=((0.75, 90), (0.15, 500), (0.08, 1300), (0.02, 4000)),
    ifetch_run_mean=8.0,
    data_footprint_blocks=12288,  # ~1.5MB
    data_zipf=0.90,
    sequential_run_mean=3.0,
    instr_footprint_blocks=1400,
    loop_length_mean=20.0,
    loop_iterations_mean=6.0,
    ref_instructions=1.8e9,
)

GZIP = WorkloadProfile(
    name="gzip",
    description="SPEC2000 INT: compression; compute-bound, tiny working set",
    mix={"int": 0.50, "int_mul": 0.03, "load": 0.22, "store": 0.09,
         "branch": 0.16},
    dep_distance_mean=4.3,
    second_operand_rate=0.45,
    load_chain_rate=0.04,
    branch_bias=0.92,
    unpredictable_rate=0.22,
    static_branches=512,
    data_reuse_strata=((0.88, 48), (0.10, 600), (0.02, 1500)),
    instr_reuse_strata=((0.97, 40), (0.03, 70)),
    ifetch_run_mean=9.0,
    data_footprint_blocks=1536,  # ~192KB
    data_zipf=1.30,
    sequential_run_mean=6.0,
    instr_footprint_blocks=80,
    loop_length_mean=6.0,
    loop_iterations_mean=60.0,
    ref_instructions=1.5e9,
)

JBB = WorkloadProfile(
    name="jbb",
    description="SPECjbb: Java server; large code footprint, decent ILP",
    mix={"int": 0.42, "int_mul": 0.02, "fp": 0.02, "load": 0.26, "store": 0.12,
         "branch": 0.16},
    dep_distance_mean=11.0,
    second_operand_rate=0.45,
    load_chain_rate=0.10,
    branch_bias=0.92,
    unpredictable_rate=0.12,
    static_branches=4096,
    data_reuse_strata=((0.68, 52), (0.12, 800), (0.14, 8000), (0.06, 80000)),
    instr_reuse_strata=((0.66, 100), (0.20, 600), (0.10, 1500), (0.04, 5000)),
    ifetch_run_mean=8.0,
    data_footprint_blocks=20480,  # ~2.5MB
    data_zipf=0.85,
    sequential_run_mean=3.0,
    instr_footprint_blocks=2000,
    loop_length_mean=16.0,
    loop_iterations_mean=8.0,
    ref_instructions=2.0e9,
)

MCF = WorkloadProfile(
    name="mcf",
    description="SPEC2000 INT: network simplex; memory-bound pointer chasing",
    mix={"int": 0.35, "int_mul": 0.02, "load": 0.35, "store": 0.09,
         "branch": 0.19},
    dep_distance_mean=2.6,
    second_operand_rate=0.40,
    load_chain_rate=0.40,
    branch_bias=0.90,
    unpredictable_rate=0.25,
    static_branches=512,
    data_reuse_strata=((0.45, 48), (0.12, 1500), (0.28, 26000), (0.15, 400000)),
    instr_reuse_strata=((0.985, 20), (0.015, 60)),
    ifetch_run_mean=10.0,
    data_footprint_blocks=131072,  # ~16MB
    data_zipf=0.55,
    sequential_run_mean=2.0,
    instr_footprint_blocks=60,
    loop_length_mean=8.0,
    loop_iterations_mean=30.0,
    ref_instructions=1.2e9,
)

MESA = WorkloadProfile(
    name="mesa",
    description="SPEC2000 FP: 3D graphics; abundant ILP, large code",
    mix={"fp": 0.28, "int_mul": 0.02, "int": 0.30, "load": 0.22, "store": 0.08,
         "branch": 0.10},
    dep_distance_mean=22.0,
    second_operand_rate=0.55,
    load_chain_rate=0.02,
    branch_bias=0.97,
    unpredictable_rate=0.03,
    static_branches=384,
    data_reuse_strata=((0.82, 44), (0.12, 500), (0.05, 3500), (0.01, 30000)),
    instr_reuse_strata=((0.80, 120), (0.15, 900), (0.04, 1800), (0.01, 3000)),
    ifetch_run_mean=11.0,
    data_footprint_blocks=4096,  # ~512KB
    data_zipf=1.00,
    sequential_run_mean=8.0,
    instr_footprint_blocks=1600,
    loop_length_mean=30.0,
    loop_iterations_mean=12.0,
    ref_instructions=3.0e9,
)

TWOLF = WorkloadProfile(
    name="twolf",
    description="SPEC2000 INT: place & route; moderate ILP, ~1MB working set",
    mix={"int": 0.44, "int_mul": 0.04, "load": 0.26, "store": 0.08,
         "branch": 0.18},
    dep_distance_mean=4.2,
    second_operand_rate=0.45,
    load_chain_rate=0.16,
    branch_bias=0.91,
    unpredictable_rate=0.20,
    static_branches=1024,
    data_reuse_strata=((0.72, 48), (0.12, 900), (0.13, 7000), (0.03, 50000)),
    instr_reuse_strata=((0.96, 40), (0.04, 140)),
    ifetch_run_mean=9.0,
    data_footprint_blocks=8192,  # ~1MB
    data_zipf=1.00,
    sequential_run_mean=2.0,
    instr_footprint_blocks=150,
    loop_length_mean=10.0,
    loop_iterations_mean=40.0,
    ref_instructions=1.6e9,
)

#: The paper's nine benchmarks in its reporting order.
SUITE: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (AMMP, APPLU, EQUAKE, GCC, GZIP, JBB, MCF, MESA, TWOLF)
}

BENCHMARK_NAMES = tuple(SUITE)

#: The paper's "representative benchmarks" used in Figures 2 and 3.
REPRESENTATIVE = ("ammp", "mcf")


def get_profile(name: str) -> WorkloadProfile:
    """Profile for one benchmark; raises KeyError with the valid names."""
    try:
        return SUITE[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; suite contains {sorted(SUITE)}"
        ) from None
