"""Workload profiles, synthetic traces and the nine-benchmark suite."""

from .generator import TraceGenerator, generate_trace
from .profile import ProfileError, WorkloadProfile
from .suite import (
    BENCHMARK_NAMES,
    REPRESENTATIVE,
    SUITE,
    get_profile,
)
from .characterize import (
    WorkloadCharacter,
    branch_predictability,
    characterize,
    dataflow_ilp,
    instruction_miss_rate_curve,
    miss_rate_curve,
)
from .validation import Check, ConformanceReport, validate_trace
from .trace import (
    GPR_WRITERS,
    OP_BRANCH,
    OP_CODES,
    OP_FP,
    OP_FP_DIV,
    OP_INT,
    OP_INT_MUL,
    OP_LOAD,
    OP_NAMES,
    OP_STORE,
    Trace,
    TraceError,
)

__all__ = [
    "WorkloadProfile",
    "ProfileError",
    "Trace",
    "TraceError",
    "TraceGenerator",
    "generate_trace",
    "SUITE",
    "BENCHMARK_NAMES",
    "REPRESENTATIVE",
    "get_profile",
    "OP_INT",
    "OP_INT_MUL",
    "OP_FP",
    "OP_FP_DIV",
    "OP_LOAD",
    "OP_STORE",
    "OP_BRANCH",
    "OP_NAMES",
    "OP_CODES",
    "GPR_WRITERS",
    "validate_trace",
    "ConformanceReport",
    "Check",
    "characterize",
    "WorkloadCharacter",
    "dataflow_ilp",
    "branch_predictability",
    "miss_rate_curve",
    "instruction_miss_rate_curve",
]
