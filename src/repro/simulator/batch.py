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

The first property also fixes, before the loop, *which* ring slot every
instruction reads and writes in every occupancy window: acquisition ``k``
of a window is the same instruction in every lane.  So the loop does no
bookkeeping of its own.  It walks per-instruction lists of ring slots,
dependency slots and outcome rows, and spends its time on the O(B)
vector operations; a row that is the same in every lane (no lane misses
to memory, no lane pays a fetch penalty) is not touched at all.

The equivalence contract is *hard*: for every config in the block,
:func:`run_pipeline_batch` returns bit-identical cycles and
:class:`~repro.simulator.results.ActivityCounts` to the scalar
``run_pipeline`` reference path (see ``tests/test_batch_sim.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..workloads.trace import (
    OP_BRANCH,
    OP_FP,
    OP_FP_DIV,
    OP_INT,
    OP_INT_MUL,
    OP_LOAD,
    OP_NAMES,
    OP_STORE,
    Trace,
)
from .branch import OneBitBHT, branch_stream
from .config import ConfigColumns, MachineConfig, config_columns
from .pipeline import PipelineOutcome
from .results import ActivityCounts


class _TraceView:
    """Config-independent precomputation, built once per trace.

    Everything here depends only on the trace columns: the op list and
    each instruction's completion-ring slots, the program-order
    reuse-distance streams consumed by the stack-distance model, per-load
    next-line-sequential flags, and the activity counts that are
    identical for every config.
    """

    __slots__ = (
        "n", "ops", "ring", "slot", "dep1", "dep2", "fetch_positions",
        "load_positions", "branch_positions", "instr_reuse", "mem_reuse",
        "mem_is_load", "load_sequential", "base_counts",
    )

    def __init__(self, trace: Trace):
        op = trace.op.astype(np.int64)
        n = len(trace)
        self.n = n
        self.ops = op.tolist()

        # Completion times live in a ring deep enough for the longest
        # dependence: instruction i stores into slot i % ring and reads
        # its producers from (i - distance) % ring.  ``dep1`` is the
        # first producer slot (-1: none), ``dep2`` a second, distinct one.
        ring = int(max(trace.src1.max(), trace.src2.max())) + 1
        index = np.arange(n)
        self.ring = ring
        self.slot = (index % ring).tolist()
        first = np.where(trace.src1 > 0, (index - trace.src1) % ring, -1)
        second = np.where(trace.src2 > 0, (index - trace.src2) % ring, -1)
        second[second == first] = -1
        self.dep1 = np.where(first < 0, second, first).tolist()
        self.dep2 = np.where(first < 0, -1, second).tolist()

        # Fetch-event stream (new instruction blocks, in program order).
        fetch_mask = trace.instr_reuse >= 0
        self.fetch_positions = np.flatnonzero(fetch_mask)
        self.instr_reuse = trace.instr_reuse[fetch_mask].astype(np.int64)

        # Data-access stream: the scalar pipeline calls ``data_access``
        # for every load (at resolve) and store (at execute), i.e. for
        # memory-class ops in program order.
        is_mem_op = np.isin(op, (OP_LOAD, OP_STORE))
        self.mem_reuse = trace.data_reuse[is_mem_op].astype(np.int64)
        is_load = op == OP_LOAD
        self.mem_is_load = op[is_mem_op] == OP_LOAD
        self.load_positions = np.flatnonzero(is_load)
        self.branch_positions = np.flatnonzero(op == OP_BRANCH)

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
    view: _TraceView, configs: Union[Sequence[MachineConfig], ConfigColumns]
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Service levels + hierarchy counters under the stack-distance model.

    Broadcasting the shared reuse-distance streams against each config's
    effective capacities (the columns
    :class:`~repro.simulator.memory.StackDistanceMemory` would hold)
    replicates the scalar threshold cascade exactly: level 0 below the L1
    capacity, 1 below the L2 share, else 2.  The int8 level codes come
    out ``[n, B]`` (one row per access), the timing loop's layout.
    """
    columns = config_columns(configs)

    def levels(reuse: np.ndarray, l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
        reuse = reuse[:, None]
        return np.where(
            reuse < l1, np.int8(0), np.where(reuse < l2, np.int8(1), np.int8(2))
        )
    data_levels = levels(
        view.mem_reuse, columns.dl1_effective, columns.l2_data_effective
    )
    instr_levels = levels(
        view.instr_reuse, columns.il1_effective, columns.l2_instr_effective
    )
    batch = len(columns)
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


def _config_columns(columns: ConfigColumns) -> Tuple[np.ndarray, ...]:
    """Every per-config column the kernel reads, as int64.

    In the order :func:`run_pipeline_batch` unpacks them.  Each level's
    latency is the sum of the arrays it passes through
    (``MachineConfig.data_latency`` / ``fetch_penalty``).
    """
    c = columns
    lat = c.op_latency
    dl1, l2, mem = c.dl1_latency, c.l2_latency, c.memory_latency
    rows = (
        c.frontend_stages, c.width, c.dispatch_rate, c.rob_size,
        c.gpr_rename, c.fpr_rename, c.fx_resv, c.fp_resv, c.br_resv,
        c.ls_queue, c.store_queue, c.functional_units, c.mshr_count,
        lat[OP_INT], lat[OP_INT_MUL], lat[OP_FP], lat[OP_FP_DIV],
        lat[OP_STORE], lat[OP_BRANCH], dl1,
        dl1, dl1 + l2, dl1 + l2 + mem,  # data_latency("l1" | "l2" | "mem")
        np.zeros_like(l2), l2, l2 + mem,  # fetch_penalty("l1" | "l2" | "mem")
        c.in_order, c.prefetch,
    )
    return tuple(np.asarray(row, dtype=np.int64) for row in rows)


class _Ring:
    """:class:`~repro.simulator.resources.OccupancyWindow` of every lane.

    Every lane acquires at the same instructions (the instruction stream
    is common), so acquisition ``k`` of every lane stores its release
    times in row ``k % R`` of the ring's ``[R, B]`` block, ``R`` the
    largest capacity.  Lane ``b``'s next occupant waits for the release
    recorded ``capacity[b]`` acquisitions earlier, in row
    ``(k - capacity[b]) % R``; ``R >= capacity[b]`` keeps that row
    unwritten since, and before ``capacity[b]`` acquisitions it still
    holds its initial value.

    The block is rows ``offset:offset + R`` of a ``[rows, B]`` state
    buffer shared by every ring of a call.  ``slots[k % R]`` is
    acquisition ``k``'s pair ``(key, row)``: ``row`` receives the
    release, and the next-free times are ``flat[key]``, a gather from the
    buffer's flat view.  Where every lane has capacity ``R`` that row is
    the one just due, so the key is ``None`` and the row itself is read —
    the ROB, at its fixed ``ROB_SIZE``, always is such a ring.
    """

    __slots__ = ("slots",)

    def __init__(self, state: np.ndarray, offset: int, capacities: np.ndarray):
        size = int(capacities.max())
        batch = capacities.size
        start = offset * batch
        rows = list(state[offset:offset + size])
        if (capacities == size).all():
            keys = [None] * size
        else:
            gather = (np.arange(size)[:, None] - capacities) % size * batch
            keys = list(gather + (start + np.arange(batch)))
        self.slots = list(zip(keys, rows))

    def cycle(self, count: int) -> list:
        """The slots of acquisitions ``0 .. count - 1``, in order."""
        return list(itertools.islice(itertools.cycle(self.slots), count))


def _lockstep_rings(
    capacities: Sequence[np.ndarray],
) -> Tuple[np.ndarray, List[_Ring]]:
    """One zeroed state buffer and a :class:`_Ring` per capacity column.

    Returns the buffer's flat view, which the rings' keys index, and the
    rings in the order of ``capacities``.
    """
    sizes = [int(column.max()) for column in capacities]
    state = np.zeros((sum(sizes), capacities[0].size), dtype=np.int64)
    offsets = itertools.accumulate([0] + sizes[:-1])
    rings = [
        _Ring(state, offset, column)
        for offset, column in zip(offsets, capacities)
    ]
    return state.reshape(-1), rings


def _acquisitions(ops: List[int], rings_by_op: Dict[int, _Ring]) -> list:
    """Per instruction, the slot it acquires in its op class's ring.

    ``(None, None)`` where the op class acquires no ring of this role.  Op
    classes that share a ring share its acquisition count.
    """
    cursors = {
        id(ring): itertools.cycle(ring.slots) for ring in rings_by_op.values()
    }
    none = itertools.repeat((None, None))
    by_op = [
        cursors[id(rings_by_op[op])] if op in rings_by_op else none
        for op in range(len(OP_NAMES))
    ]
    return [next(by_op[op]) for op in ops]


class _MaskedWindow:
    """Occupancy window whose acquisitions only some configs make.

    Serves the MSHRs: a load takes one only in the configs where it
    misses to memory, so each config keeps its own ring and head.  Lane
    ``b``'s ring is ``releases[b * R : b * R + capacity[b]]`` of one flat
    buffer, and ``position[b]`` is the flat index of its head.
    """

    __slots__ = ("_releases", "_position", "_capacity", "_end")

    def __init__(self, capacities: np.ndarray):
        size = int(capacities.max())
        start = np.arange(capacities.size) * size
        self._releases = np.zeros(capacities.size * size, dtype=np.int64)
        self._position = start
        self._capacity = capacities
        self._end = start + capacities

    def next_free(self) -> np.ndarray:
        return self._releases[self._position]

    def acquire_where(self, mask: np.ndarray, release_time: np.ndarray) -> None:
        position = self._position
        releases = self._releases
        releases[position] = np.where(mask, release_time, releases[position])
        position += mask
        np.subtract(
            position, self._capacity, out=position, where=position == self._end
        )


def run_pipeline_batch(
    trace: Trace, configs: Union[Sequence[MachineConfig], ConfigColumns]
) -> List[PipelineOutcome]:
    """Schedule ``trace`` on every config at once; one outcome per config.

    Bit-identical to calling the scalar
    :func:`~repro.simulator.pipeline.run_pipeline` per config with the
    stack-distance memory model and a predictor warmed as
    :class:`~repro.simulator.simulator.Simulator` warms it — the hard
    equivalence contract of the batch kernel.  ``configs`` may come
    already resolved by :func:`~repro.simulator.config.config_columns`
    (the simulator's power model reads the same columns).
    """
    if not len(configs):
        return []
    columns = config_columns(configs)
    view = _trace_view(trace)
    batch = len(columns)
    n = view.n
    lanes = np.arange(batch)
    (
        frontend, width, dispatch_rate, rob_size, gpr_rename, fpr_rename,
        fx_resv, fp_resv, br_resv, ls_queue, store_queue, units, mshr_count,
        lat_int, lat_mul, lat_fp, lat_div, lat_store, lat_branch, dl1_latency,
        lat_l1, lat_l2, lat_mem, pen_l1, pen_l2, pen_mem, in_order, prefetch,
    ) = _config_columns(columns)
    in_order = in_order.astype(bool)
    prefetch = prefetch.astype(bool)
    any_in_order = bool(in_order.any())

    # ---- per-block precompute (timing-independent) -----------------------
    data_levels, instr_levels, mem_counters = _stack_levels(view, columns)

    # Per-load latency / memory-miss rows, gathered straight into the
    # timing loop's ``[n, B]`` layout, with next-line prefetch coverage
    # applied by *latency value* (not level), as the scalar does; only
    # loads that continue a sequential block run can be covered.
    load_table = np.array([lat_l1, lat_l2, lat_mem], dtype=np.int32)
    load_levels = data_levels[view.mem_is_load]
    del data_levels
    load_lat = load_table[load_levels, lanes]
    load_miss = load_levels == 2
    del load_levels
    sequential = np.flatnonzero(view.load_sequential)
    covered = prefetch & (load_lat[sequential] != load_table[0])
    if covered.any():
        load_lat[sequential] = np.where(
            covered, load_table[0], load_lat[sequential]
        )
        load_miss[sequential] &= ~covered
    prefetch_covered = covered.sum(axis=0)

    # Per-instruction latency rows, and the memory-miss row of each load
    # that misses to memory in some lane (``None`` elsewhere: no MSHR).
    class_latency = {
        OP_INT: lat_int, OP_INT_MUL: lat_mul, OP_FP: lat_fp,
        OP_FP_DIV: lat_div, OP_STORE: lat_store, OP_BRANCH: lat_branch,
    }
    latency = [class_latency.get(op) for op in view.ops]
    misses = [None] * n
    any_miss = load_miss.any(axis=1).tolist()
    for j, i in enumerate(view.load_positions.tolist()):
        latency[i] = load_lat[j]
        if any_miss[j]:
            misses[i] = load_miss[j]

    # Fetch-penalty rows, only for fetch events some lane pays for.
    fetch_pen = np.array([pen_l1, pen_l2, pen_mem])[instr_levels, lanes]
    del instr_levels
    charged = fetch_pen.any(axis=1)
    penalties = [None] * n
    for i, row in zip(view.fetch_positions[charged].tolist(), fetch_pen[charged]):
        penalties[i] = row
    del fetch_pen

    mispredicted = np.zeros(n, dtype=bool)
    stream = _mispredict_stream(trace)
    mispredicted[view.branch_positions] = stream
    mispredicts = int(stream.sum())

    # ---- resource state: one lockstep ring per window ---------------------
    flat, (
        fetch, dispatch, retire, rob, gpr, fpr, fx_rs, fp_rs, br_rs,
        load_queue, store_q, fxu, fpu, lsu, bru,
    ) = _lockstep_rings((
        width, dispatch_rate, width, rob_size, gpr_rename, fpr_rename,
        fx_resv, fp_resv, br_resv, ls_queue, store_queue,
        units, units, units, units,
    ))
    mshrs = _MaskedWindow(mshr_count)
    # Fetch times are carried plus the front-end depth (dispatch's
    # earliest cycle), so the fetch ring starts at ``frontend``.
    for _, row in fetch.slots:
        row[...] = frontend
    fetch_available = frontend.copy()

    ops = view.ops
    steps = zip(
        ops, view.slot, view.dep1, view.dep2, latency, misses, penalties,
        mispredicted.tolist(),
        fetch.cycle(n), dispatch.cycle(n), retire.cycle(n), rob.cycle(n),
        _acquisitions(ops, {
            OP_INT: fx_rs, OP_INT_MUL: fx_rs, OP_FP: fp_rs, OP_FP_DIV: fp_rs,
            OP_LOAD: load_queue, OP_STORE: load_queue, OP_BRANCH: br_rs,
        }),
        _acquisitions(ops, {
            OP_INT: fxu, OP_INT_MUL: fxu, OP_FP: fpu, OP_FP_DIV: fpu,
            OP_LOAD: lsu, OP_STORE: lsu, OP_BRANCH: bru,
        }),
        _acquisitions(ops, {
            OP_INT: gpr, OP_INT_MUL: gpr, OP_LOAD: gpr, OP_FP: fpr,
            OP_FP_DIV: fpr,
        }),
        _acquisitions(ops, {OP_STORE: store_q}),
    )

    # Completion times by ring slot: each entry is the ``comp`` array
    # itself, which nothing mutates after it is stored.
    zeros = np.zeros(batch, dtype=np.int64)
    completion = [zeros] * view.ring
    last_dispatch = zeros
    last_issue = zeros
    last_retire = zeros
    # An array operand: numpy adds a python-int scalar more slowly.
    one = np.ones(batch, dtype=np.int64)
    maximum = np.maximum
    add = np.add

    # ---- the timing loop: one pass, O(B) vector work per instruction -----
    # A window's next-free times are ``row if key is None else flat[key]``:
    # the slot's own row when every lane has the ring's capacity, else a
    # gather.  ``add`` takes its output positionally (a keyword parses
    # more slowly); ``maximum`` only accepts it as a keyword.
    for (
        op, slot, dep1, dep2, lat, miss, penalty, mispredict,
        (fetch_key, fetch_row), (disp_key, disp_row),
        (retire_key, retire_row), (rob_key, rob_row),
        (rs_key, rs_row), (fu_key, fu_row), (reg_key, reg_row),
        (store_key, store_row),
    ) in steps:
        # fetch, in cycles plus the front-end depth
        if penalty is not None:
            fetch_available = fetch_available + penalty
        disp = maximum(
            fetch_available,
            fetch_row if fetch_key is None else flat[fetch_key],
        )
        add(disp, one, fetch_row)

        # dispatch
        maximum(disp, last_dispatch, out=disp)
        maximum(disp, rob_row if rob_key is None else flat[rob_key], out=disp)
        maximum(disp, rs_row if rs_key is None else flat[rs_key], out=disp)
        if reg_row is not None:
            maximum(
                disp, reg_row if reg_key is None else flat[reg_key], out=disp
            )
        if store_row is not None:
            maximum(
                disp, store_row if store_key is None else flat[store_key],
                out=disp,
            )
        maximum(
            disp, disp_row if disp_key is None else flat[disp_key], out=disp
        )
        add(disp, one, disp_row)
        last_dispatch = disp

        # issue: the dispatch ring row already holds ``disp + 1``
        ready = disp_row
        if dep1 >= 0:
            ready = maximum(ready, completion[dep1])
            if dep2 >= 0:
                maximum(ready, completion[dep2], out=ready)
        if any_in_order:
            ready = np.where(in_order, maximum(ready, last_issue), ready)
        issue = maximum(ready, fu_row if fu_key is None else flat[fu_key])
        if miss is not None:
            maximum(issue, mshrs.next_free(), out=issue, where=miss)
            comp = issue + lat
            mshrs.acquire_where(miss, comp)
        else:
            comp = issue + lat
        last_issue = issue
        completion[slot] = comp

        # Divides and multiplies hold their unit until completion, loads
        # and stores their queue entry; everything else for one cycle.
        if op == OP_FP_DIV or op == OP_INT_MUL:
            fu_row[...] = comp
            add(issue, one, rs_row)
        else:
            add(issue, one, fu_row)
            rs_row[...] = comp if op == OP_LOAD or op == OP_STORE else fu_row

        # retire, computed straight into the instruction's ROB entry
        retire_time = comp + one
        if mispredict:
            maximum(
                fetch_available, retire_time + frontend, out=fetch_available
            )
        maximum(retire_time, last_retire, out=retire_time)
        maximum(
            retire_time,
            retire_row if retire_key is None else flat[retire_key],
            out=rob_row,
        )
        add(rob_row, one, retire_row)
        last_retire = rob_row

        # release the rename register and the store-queue entry
        if reg_row is not None:
            reg_row[...] = rob_row
        if store_row is not None:
            add(rob_row, dl1_latency, store_row)

    # ---- assemble per-config outcomes ------------------------------------
    shared = dict(view.base_counts, mispredicts=mispredicts)
    varying = dict(
        cycles=last_retire, prefetch_covered=prefetch_covered, **mem_counters
    )
    names = tuple(varying)
    return [
        PipelineOutcome(
            cycles=row[0], counts=ActivityCounts(**shared, **dict(zip(names, row)))
        )
        for row in zip(*(column.tolist() for column in varying.values()))
    ]
