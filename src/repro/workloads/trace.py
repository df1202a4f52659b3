"""Trace representation.

A :class:`Trace` is the unit of simulator input: a fixed sequence of
dynamic instructions with register dependences encoded as *producer
distances* (how many instructions back the producing instruction sits),
data-memory block ids for loads/stores, instruction-block ids for the
fetch stream, and resolved branch outcomes.

The paper replays 100M-instruction PowerPC traces through Turandot; we
replay synthetic traces (see :mod:`repro.workloads.generator`) through our
simulator.  Storage is column-oriented numpy arrays so traces are compact
and cheap to hand to the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

# Operation classes.  Values are stable: traces persisted to disk rely on them.
OP_INT = 0        #: simple fixed-point ALU op
OP_INT_MUL = 1    #: fixed-point multiply/divide class (long latency)
OP_FP = 2         #: floating-point add/multiply class
OP_FP_DIV = 3     #: floating-point divide/sqrt class (long latency)
OP_LOAD = 4       #: memory load
OP_STORE = 5      #: memory store
OP_BRANCH = 6     #: conditional branch

OP_NAMES = {
    OP_INT: "int",
    OP_INT_MUL: "int_mul",
    OP_FP: "fp",
    OP_FP_DIV: "fp_div",
    OP_LOAD: "load",
    OP_STORE: "store",
    OP_BRANCH: "branch",
}
OP_CODES = {name: code for code, name in OP_NAMES.items()}

#: Reuse distance assigned to cold (first-touch) accesses: effectively
#: infinite, so they miss in every finite cache.
COLD_DISTANCE = 1 << 40

#: ``instr_reuse`` value meaning "no new fetch block at this instruction".
NO_FETCH = -1

#: ``data_reuse`` value for non-memory instructions.
NO_DATA = -1

#: Op classes that write a general-purpose (integer) physical register.
GPR_WRITERS = (OP_INT, OP_INT_MUL, OP_LOAD)


class TraceError(ValueError):
    """Raised for structurally invalid traces."""


@dataclass
class Trace:
    """A dynamic instruction trace.

    All arrays share length ``n`` (one entry per dynamic instruction):

    - ``op``: uint8 op class code.
    - ``src1``/``src2``: int32 producer distances (0 = no register source;
      ``d > 0`` means "depends on the instruction ``d`` earlier").
    - ``mem_block``: int64 data block id touched by loads/stores (-1 for
      non-memory ops).  A block models 128 bytes.  Consumed by the
      next-line prefetcher and by trace characterization.
    - ``data_reuse``: int64 LRU stack distance (in blocks) of the data
      access (:data:`NO_DATA` for non-memory ops, :data:`COLD_DISTANCE`
      for first touches).  Consumed by the default *stack-distance* memory
      model, which gives steady-state cache behaviour even for short
      traces — the role trace sampling [11] plays for the paper.
    - ``iblock``: int32 instruction block id fetched for this instruction.
    - ``instr_reuse``: int64 reuse distance of the fetch block when this
      instruction starts a new fetch block (:data:`NO_FETCH` otherwise).
    - ``taken``: bool branch outcome (False for non-branches).
    - ``branch_site``: int32 static branch id for predictor indexing
      (-1 for non-branches).
    """

    name: str
    op: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    mem_block: np.ndarray
    data_reuse: np.ndarray
    iblock: np.ndarray
    instr_reuse: np.ndarray
    taken: np.ndarray
    branch_site: np.ndarray
    ref_instructions: float = 1e9
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Memoized config-independent data derived from the (immutable)
    #: columns — see :meth:`derived`.  Not part of the trace's identity.
    _derived: Dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.op)
        arrays = {
            "src1": self.src1,
            "src2": self.src2,
            "mem_block": self.mem_block,
            "data_reuse": self.data_reuse,
            "iblock": self.iblock,
            "instr_reuse": self.instr_reuse,
            "taken": self.taken,
            "branch_site": self.branch_site,
        }
        for label, array in arrays.items():
            if len(array) != n:
                raise TraceError(
                    f"trace {self.name!r}: column {label} has length "
                    f"{len(array)}, expected {n}"
                )
        if n == 0:
            raise TraceError(f"trace {self.name!r} is empty")
        if self.op.min() < OP_INT or self.op.max() > OP_BRANCH:
            raise TraceError(f"trace {self.name!r} has unknown op codes")
        positions = np.arange(n)
        for label, column in (("src1", self.src1), ("src2", self.src2)):
            if column.min() < 0:
                raise TraceError(f"trace {self.name!r}: negative {label} distance")
            if (column > positions).any():
                raise TraceError(
                    f"trace {self.name!r}: {label} distance reaches before trace start"
                )
        is_mem = np.isin(self.op, (OP_LOAD, OP_STORE))
        if (self.mem_block[is_mem] < 0).any():
            raise TraceError(f"trace {self.name!r}: memory op without block id")
        if (self.data_reuse[is_mem] < 0).any():
            raise TraceError(
                f"trace {self.name!r}: memory op without reuse distance"
            )
        if (self.data_reuse[~is_mem] != NO_DATA).any():
            raise TraceError(
                f"trace {self.name!r}: non-memory op carries a data reuse distance"
            )
        # Both timing kernels read the branch stream off these columns, so
        # "is a branch" must have one answer: the op code.
        is_branch = self.op == OP_BRANCH
        if not np.array_equal(self.branch_site >= 0, is_branch):
            raise TraceError(
                f"trace {self.name!r}: branch sites must mark exactly the branch ops"
            )
        if self.taken[~is_branch].any():
            raise TraceError(f"trace {self.name!r}: non-branch op marked taken")
        if self.ref_instructions <= 0:
            raise TraceError(f"trace {self.name!r}: ref_instructions must be positive")

    def __len__(self) -> int:
        return len(self.op)

    def derived(self, key: tuple, build):
        """Memoize ``build()`` under ``key`` for this trace's lifetime.

        Consumers (e.g. the batched timing kernel) hoist expensive
        config-independent precomputation — access streams, dependence
        columns, predictor replays — out of their hot loops and key it
        here, so it is computed once per trace object rather than once per
        call.  ``key`` must capture every input to ``build`` other than
        the trace columns themselves (which are immutable by convention).
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    # -- summaries -----------------------------------------------------------

    def mix(self) -> Dict[str, float]:
        """Fraction of instructions in each op class."""
        n = len(self)
        if n == 0:
            return {OP_NAMES[code]: 0.0 for code in OP_NAMES}
        counts = np.bincount(self.op, minlength=OP_BRANCH + 1)
        return {OP_NAMES[code]: counts[code] / n for code in OP_NAMES}

    def data_footprint(self) -> int:
        """Distinct data blocks touched."""
        blocks = self.mem_block[self.mem_block >= 0]
        return int(np.unique(blocks).size) if blocks.size else 0

    def fetch_events(self) -> int:
        """Number of new-fetch-block events in the instruction stream."""
        return int((self.instr_reuse != NO_FETCH).sum())
