"""Batched multi-config timing kernel.

Replays one :class:`~repro.workloads.trace.Trace` against a whole block of
:class:`~repro.simulator.config.MachineConfig` designs in a single pass —
the access pattern of a campaign, where every chunk simulates many sampled
designs on the *same* benchmark trace.  The scalar
:func:`~repro.simulator.pipeline.run_pipeline` visits each instruction
once per design; this kernel visits each instruction once per *block*,
carrying the fetch/dispatch/issue/complete/retire state as int64 numpy
arrays over the config axis.  The per-instruction work is therefore a
fixed number of O(B) vector operations instead of B repetitions of the
scalar bookkeeping.

Two properties of the scalar model make the vectorization exact rather
than approximate:

- **Op classes are shared.**  The op class at instruction ``i`` comes from
  the trace, not the config, so every design takes the same code path per
  instruction; only the *values* (latencies, capacities, outcome streams)
  differ across the block.
- **The memory and branch streams are timing-independent.**  The scalar
  pipeline consults the stack-distance memory model and the predictor in
  program order regardless of the cycles it assigns, so service levels,
  mispredict outcomes, fetch penalties and prefetch coverage can all be
  precomputed per block (and the trace-only parts once per trace,
  memoized via :meth:`~repro.workloads.trace.Trace.derived`) before the
  timing loop runs.

The equivalence contract is *hard*: for every config in the block,
:func:`run_pipeline_batch` returns bit-identical cycles and
:class:`~repro.simulator.results.ActivityCounts` to the scalar
``run_pipeline`` reference path (see ``tests/test_batch_sim.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..workloads.trace import (
    OP_BRANCH,
    OP_FP,
    OP_FP_DIV,
    OP_INT,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
    Trace,
)
from .branch import OneBitBHT, branch_stream
from .config import MachineConfig
from .memory import StackDistanceMemory
from .pipeline import PipelineOutcome
from .results import ActivityCounts


class _TraceView:
    """Config-independent precomputation, built once per trace.

    Everything here depends only on the trace columns: python-scalar
    copies of the hot columns, the program-order reuse-distance streams
    consumed by the stack-distance model, per-load next-line-sequential
    flags, and the activity counts that are identical for every config.
    """

    __slots__ = (
        "n", "ops", "src1", "src2", "max_dep", "fetch_flags",
        "instr_reuse", "mem_reuse", "mem_is_load", "load_sequential",
        "base_counts",
    )

    def __init__(self, trace: Trace):
        op = trace.op.astype(np.int64)
        n = len(trace)
        self.n = n
        self.ops = op.tolist()
        self.src1 = trace.src1.tolist()
        self.src2 = trace.src2.tolist()
        self.max_dep = int(max(trace.src1.max(), trace.src2.max()))

        # Fetch-event stream (new instruction blocks, in program order).
        fetch_mask = trace.instr_reuse >= 0
        self.fetch_flags = fetch_mask.tolist()
        self.instr_reuse = trace.instr_reuse[fetch_mask].astype(np.int64)

        # Data-access stream: the scalar pipeline calls ``data_access``
        # for every load (at resolve) and store (at execute), i.e. for
        # memory-class ops in program order.
        is_mem_op = np.isin(op, (OP_LOAD, OP_STORE))
        self.mem_reuse = trace.data_reuse[is_mem_op].astype(np.int64)
        is_load = op == OP_LOAD
        self.mem_is_load = op[is_mem_op] == OP_LOAD

        # Next-line prefetch flags, exactly as the scalar path derives
        # them: over the concrete block stream (``mem_block >= 0``), then
        # sliced down to loads (the only consumers).
        block_mask = trace.mem_block >= 0
        blocks = trace.mem_block[block_mask]
        flags = np.zeros(blocks.size, dtype=bool)
        if blocks.size > 1:
            flags[1:] = blocks[1:] == blocks[:-1] + 1
        sequential_full = np.zeros(n, dtype=bool)
        sequential_full[np.flatnonzero(block_mask)] = flags
        self.load_sequential = sequential_full[is_load]

        # Activity counts that depend only on the trace.
        reads = (trace.src1 != 0).astype(np.int64) + (trace.src2 != 0)
        fp_mask = (op == OP_FP) | (op == OP_FP_DIV)
        self.base_counts = {
            "instructions": n,
            "int_ops": int((op == OP_INT).sum()),
            "int_mul_ops": int((op == OP_INT_MUL).sum()),
            "fp_ops": int((op == OP_FP).sum()),
            "fp_div_ops": int((op == OP_FP_DIV).sum()),
            "loads": int(is_load.sum()),
            "stores": int((op == OP_STORE).sum()),
            "branches": int((op == OP_BRANCH).sum()),
            "fpr_reads": int(reads[fp_mask].sum()),
            "fpr_writes": int(fp_mask.sum()),
            "gpr_reads": int(reads[~fp_mask].sum()),
            "gpr_writes": int(
                np.isin(op, (OP_INT, OP_INT_MUL, OP_LOAD)).sum()
            ),
        }


def _trace_view(trace: Trace) -> _TraceView:
    return trace.derived(("batch", "view"), lambda: _TraceView(trace))


def _mispredict_stream(trace: Trace) -> np.ndarray:
    """Per-branch mispredict outcomes of the Table 3 predictor.

    The scalar pipeline updates the predictor for every branch in program
    order regardless of timing, so one replay of the branch stream fixes
    the outcome of every branch for every config.  The stream is replayed
    once beforehand, as the simulator's warming pass does.
    """

    def build() -> np.ndarray:
        predict_and_update = OneBitBHT().predict_and_update
        stream = branch_stream(trace)
        for site, taken in stream:
            predict_and_update(site, taken)
        return np.array(
            [not predict_and_update(s, t) for s, t in stream], dtype=bool
        )

    return trace.derived(("batch", "mispredict"), build)


def _stack_levels(
    view: _TraceView, configs: Sequence[MachineConfig]
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Service levels + hierarchy counters under the stack-distance model.

    Broadcasting the shared reuse-distance streams against each config's
    effective capacities replicates the scalar threshold cascade exactly:
    level 0 below the L1 capacity, 1 below the L2 share, else 2.  The
    int8 level codes come out ``[n, B]`` (one row per access), the
    timing loop's layout.
    """
    models = [StackDistanceMemory(config) for config in configs]

    def levels(reuse: np.ndarray, l1: str, l2: str) -> np.ndarray:
        def row(attr: str) -> np.ndarray:
            return np.array([getattr(m, attr) for m in models], dtype=np.float64)
        reuse = reuse[:, None]
        return np.where(
            reuse < row(l1),
            np.int8(0),
            np.where(reuse < row(l2), np.int8(1), np.int8(2)),
        )
    data_levels = levels(view.mem_reuse, "dl1_effective", "l2_data_effective")
    instr_levels = levels(view.instr_reuse, "il1_effective", "l2_instr_effective")
    batch = len(configs)
    dl1_misses = (data_levels > 0).sum(axis=0)
    il1_misses = (instr_levels > 0).sum(axis=0)
    data_mem = (data_levels == 2).sum(axis=0)
    instr_mem = (instr_levels == 2).sum(axis=0)
    counters = {
        "dl1_accesses": np.full(batch, data_levels.shape[0], dtype=np.int64),
        "dl1_misses": dl1_misses,
        "il1_accesses": np.full(batch, instr_levels.shape[0], dtype=np.int64),
        "il1_misses": il1_misses,
        "l2_accesses": dl1_misses + il1_misses,
        "l2_misses": data_mem + instr_mem,
        "memory_accesses": data_mem + instr_mem,
    }
    return data_levels, instr_levels, counters


class _LockstepWindow:
    """:class:`~repro.simulator.resources.OccupancyWindow` over a block.

    Every config in the block acquires at the same instructions (the
    instruction stream is common), so one python-int acquisition count
    ``k`` addresses all of them: acquisition ``k`` stores its release
    times as row ``k % R`` of one shared ``[R, B]`` ring, ``R`` the
    largest capacity.  Config ``b``'s next occupant waits for the release
    recorded ``capacity[b]`` acquisitions earlier, in row
    ``(k - capacity[b]) % R``; ``R >= capacity[b]`` keeps that row
    unwritten since, and before ``capacity[b]`` acquisitions it is still
    the initial zero.  A gather table precomputes, per ``k % R``, the flat
    indices of those rows, so :meth:`next_free` is one gather.
    """

    __slots__ = ("_rows", "_flat", "_gather", "_size", "_row", "_one")

    def __init__(self, capacities: np.ndarray):
        size = int(capacities.max())
        batch = capacities.size
        ring = np.zeros((size, batch), dtype=np.int64)
        self._rows = list(ring)
        self._flat = ring.reshape(-1)
        gather = (np.arange(size)[:, None] - capacities) % size * batch
        self._gather = list(gather + np.arange(batch))
        self._size = size
        self._row = 0
        # An array operand: numpy adds a python-int scalar more slowly.
        self._one = np.ones(batch, dtype=np.int64)

    def next_free(self) -> np.ndarray:
        return self._flat[self._gather[self._row]]

    def acquire(self, release_time: np.ndarray) -> None:
        row = self._row
        self._rows[row][...] = release_time
        row += 1
        self._row = 0 if row == self._size else row

    def next_slot(self, earliest: np.ndarray) -> np.ndarray:
        """:class:`~repro.simulator.resources.ThroughputLimiter` step.

        The occupant holds its slot for one cycle, so the release
        ``time + 1`` is written straight into the ring row.
        """
        row = self._row
        time = np.maximum(earliest, self._flat[self._gather[row]])
        np.add(time, self._one, self._rows[row])
        row += 1
        self._row = 0 if row == self._size else row
        return time


class _MaskedWindow:
    """Occupancy window whose acquisitions only some configs make.

    Serves the MSHRs: a load takes one only in the configs where it
    misses to memory, so each config keeps its own ring row and head.
    """

    __slots__ = ("_capacity", "_releases", "_head", "_rows")

    def __init__(self, capacities: np.ndarray):
        self._capacity = capacities
        self._releases = np.zeros(
            (capacities.size, int(capacities.max())), dtype=np.int64
        )
        self._head = np.zeros(capacities.size, dtype=np.int64)
        self._rows = np.arange(capacities.size)

    def next_free(self) -> np.ndarray:
        return self._releases[self._rows, self._head]

    def acquire_where(self, mask: np.ndarray, release_time: np.ndarray) -> None:
        rows = self._rows[mask]
        head = self._head[rows]
        self._releases[rows, head] = release_time[mask]
        head += 1
        np.remainder(head, self._capacity[rows], out=head)
        self._head[rows] = head


def run_pipeline_batch(
    trace: Trace, configs: Sequence[MachineConfig]
) -> List[PipelineOutcome]:
    """Schedule ``trace`` on every config at once; one outcome per config.

    Bit-identical to calling the scalar
    :func:`~repro.simulator.pipeline.run_pipeline` per config with the
    stack-distance memory model and a predictor warmed as
    :class:`~repro.simulator.simulator.Simulator` warms it — the hard
    equivalence contract of the batch kernel.
    """
    configs = list(configs)
    if not configs:
        return []
    view = _trace_view(trace)
    batch = len(configs)

    # ---- per-block precompute (timing-independent) -----------------------
    data_levels, instr_levels, mem_counters = _stack_levels(view, configs)

    def int_column(get) -> np.ndarray:
        return np.array([get(config) for config in configs], dtype=np.int64)
    def level_table(*per_level) -> np.ndarray:
        """A ``[3, B]`` int32 table: one row per service level."""
        return np.array(
            [[get(config) for config in configs] for get in per_level],
            dtype=np.int32,
        )
    lanes = np.arange(batch)

    # Per-load latency / memory-miss rows, gathered straight into the
    # timing loop's ``[n, B]`` layout, with next-line prefetch coverage
    # applied by *latency value* (not level), as the scalar does; only
    # loads that continue a sequential block run can be covered.
    load_table = level_table(
        lambda c: c.data_latency("l1"),
        lambda c: c.data_latency("l2"),
        lambda c: c.data_latency("mem"),
    )
    load_levels = data_levels[view.mem_is_load]
    del data_levels
    load_lat = load_table[load_levels, lanes]
    load_miss = load_levels == 2
    del load_levels
    lat_l1 = load_table[0]
    sequential = np.flatnonzero(view.load_sequential)
    prefetch = np.array([c.prefetch for c in configs], dtype=bool)
    covered = prefetch & (load_lat[sequential] != lat_l1)
    if covered.any():
        load_lat[sequential] = np.where(covered, lat_l1, load_lat[sequential])
        load_miss[sequential] &= ~covered
    prefetch_covered = covered.sum(axis=0)

    fetch_table = level_table(
        lambda c: 0,
        lambda c: c.fetch_penalty("l2"),
        lambda c: c.fetch_penalty("mem"),
    )
    fetch_pen = fetch_table[instr_levels, lanes]
    del instr_levels

    stream = _mispredict_stream(trace)
    mispredict_rows = stream.tolist()
    mispredicts = int(stream.sum())

    # ---- per-config scalars and resource state ---------------------------
    frontend = int_column(lambda c: c.frontend_stages)
    lat_int = int_column(lambda c: c.op_latency(OP_INT))
    lat_mul = int_column(lambda c: c.op_latency(OP_INT_MUL))
    lat_fp = int_column(lambda c: c.op_latency(OP_FP))
    lat_div = int_column(lambda c: c.op_latency(OP_FP_DIV))
    lat_store = int_column(lambda c: c.op_latency(OP_STORE))
    lat_branch = int_column(lambda c: c.op_latency(OP_BRANCH))
    dl1_latency = int_column(lambda c: c.dl1_latency)
    in_order = np.array([c.in_order for c in configs], dtype=bool)
    any_in_order = bool(in_order.any())

    fetch_limiter = _LockstepWindow(int_column(lambda c: c.width))
    dispatch_limiter = _LockstepWindow(int_column(lambda c: c.dispatch_rate))
    retire_limiter = _LockstepWindow(int_column(lambda c: c.width))
    rob = _LockstepWindow(int_column(lambda c: c.rob_size))
    gpr = _LockstepWindow(int_column(lambda c: c.gpr_rename))
    fpr = _LockstepWindow(int_column(lambda c: c.fpr_rename))
    fx_rs = _LockstepWindow(int_column(lambda c: c.fx_resv))
    fp_rs = _LockstepWindow(int_column(lambda c: c.fp_resv))
    br_rs = _LockstepWindow(int_column(lambda c: c.br_resv))
    load_queue = _LockstepWindow(int_column(lambda c: c.ls_queue))
    store_q = _LockstepWindow(int_column(lambda c: c.store_queue))
    units = int_column(lambda c: c.functional_units)
    fxu = _LockstepWindow(units)
    fpu = _LockstepWindow(units)
    lsu = _LockstepWindow(units)
    bru = _LockstepWindow(units)
    mshrs = _MaskedWindow(int_column(lambda c: c.mshr_count))

    ops = view.ops
    src1 = view.src1
    src2 = view.src2
    fetch_flags = view.fetch_flags
    n = view.n
    ring = view.max_dep + 1
    # Completion times by instruction, ``ring`` deep: each entry is the
    # ``comp`` array itself, which nothing mutates after it is stored.
    zeros = np.zeros(batch, dtype=np.int64)
    completion = [zeros] * ring
    fetch_available = zeros.copy()
    last_dispatch = zeros
    last_issue = zeros
    last_retire = zeros
    # An array operand: numpy adds a python-int scalar more slowly.
    one = np.ones(batch, dtype=np.int64)
    maximum = np.maximum

    load_index = 0
    fetch_index = 0
    branch_index = 0

    # ---- the timing loop: one pass, O(B) vector work per instruction -----
    for i in range(n):
        op = ops[i]

        # fetch
        if fetch_flags[i]:
            fetch_available = fetch_available + fetch_pen[fetch_index]
            fetch_index += 1
        fetch_time = fetch_limiter.next_slot(fetch_available)

        # dispatch
        disp = fetch_time + frontend
        maximum(disp, last_dispatch, out=disp)
        maximum(disp, rob.next_free(), out=disp)
        miss = None
        if op == OP_INT:
            rs_window, fu, reg, latency = fx_rs, fxu, gpr, lat_int
        elif op == OP_LOAD:
            rs_window, fu, reg = load_queue, lsu, gpr
            latency = load_lat[load_index]
            miss = load_miss[load_index]
            load_index += 1
        elif op == OP_BRANCH:
            rs_window, fu, reg, latency = br_rs, bru, None, lat_branch
        elif op == OP_STORE:
            rs_window, fu, reg, latency = load_queue, lsu, None, lat_store
            maximum(disp, store_q.next_free(), out=disp)
        elif op == OP_FP:
            rs_window, fu, reg, latency = fp_rs, fpu, fpr, lat_fp
        elif op == OP_INT_MUL:
            rs_window, fu, reg, latency = fx_rs, fxu, gpr, lat_mul
        else:  # OP_FP_DIV
            rs_window, fu, reg, latency = fp_rs, fpu, fpr, lat_div
        maximum(disp, rs_window.next_free(), out=disp)
        if reg is not None:
            maximum(disp, reg.next_free(), out=disp)
        disp = dispatch_limiter.next_slot(disp)
        last_dispatch = disp

        # issue
        ready = disp + one
        distance = src1[i]
        if distance:
            maximum(ready, completion[(i - distance) % ring], out=ready)
        distance = src2[i]
        if distance:
            maximum(ready, completion[(i - distance) % ring], out=ready)
        if any_in_order:
            ready = np.where(in_order, maximum(ready, last_issue), ready)
        issue = maximum(ready, fu.next_free())
        if miss is not None and miss.any():
            issue = np.where(miss, maximum(issue, mshrs.next_free()), issue)
            comp = issue + latency
            mshrs.acquire_where(miss, comp)
        else:
            comp = issue + latency
        issue_next = issue + one
        if op == OP_FP_DIV or op == OP_INT_MUL:
            fu.acquire(comp)
        else:
            fu.acquire(issue_next)
        last_issue = issue
        completion[i % ring] = comp

        if op == OP_BRANCH:
            if mispredict_rows[branch_index]:
                maximum(fetch_available, comp + one, out=fetch_available)
            branch_index += 1

        # retire
        retire = comp + one
        maximum(retire, last_retire, out=retire)
        retire = retire_limiter.next_slot(retire)
        last_retire = retire

        # release resources
        rob.acquire(retire)
        if reg is not None:
            reg.acquire(retire)
        if op == OP_LOAD:
            rs_window.acquire(comp)
        elif op == OP_STORE:
            rs_window.acquire(comp)
            store_q.acquire(retire + dl1_latency)
        else:
            rs_window.acquire(issue_next)

    # ---- assemble per-config outcomes ------------------------------------
    base = view.base_counts
    outcomes: List[PipelineOutcome] = []
    for b in range(batch):
        cycles = int(last_retire[b])
        counts = ActivityCounts(
            instructions=base["instructions"],
            cycles=cycles,
            int_ops=base["int_ops"],
            int_mul_ops=base["int_mul_ops"],
            fp_ops=base["fp_ops"],
            fp_div_ops=base["fp_div_ops"],
            loads=base["loads"],
            stores=base["stores"],
            branches=base["branches"],
            mispredicts=mispredicts,
            gpr_reads=base["gpr_reads"],
            gpr_writes=base["gpr_writes"],
            fpr_reads=base["fpr_reads"],
            fpr_writes=base["fpr_writes"],
            prefetch_covered=int(prefetch_covered[b]),
            il1_accesses=int(mem_counters["il1_accesses"][b]),
            il1_misses=int(mem_counters["il1_misses"][b]),
            dl1_accesses=int(mem_counters["dl1_accesses"][b]),
            dl1_misses=int(mem_counters["dl1_misses"][b]),
            l2_accesses=int(mem_counters["l2_accesses"][b]),
            l2_misses=int(mem_counters["l2_misses"][b]),
            memory_accesses=int(mem_counters["memory_accesses"][b]),
        )
        outcomes.append(PipelineOutcome(cycles=cycles, counts=counts))
    return outcomes
