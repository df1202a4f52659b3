"""Out-of-order pipeline timing model.

A single-pass, cycle-granular scheduling model of a parameterized
out-of-order superscalar — the role Turandot plays in the paper.  Each
dynamic instruction is visited once in program order; its fetch, dispatch,
issue, completion and retirement cycles are derived from:

- **fetch**: width-limited bandwidth, i-cache misses (through the unified
  L2 to memory) and branch-mispredict redirects (fetch resumes after the
  branch resolves, then refills the front end — the depth-scaled penalty);
- **dispatch**: in-order, ``2w+1`` per cycle, blocked while the reorder
  buffer, rename registers, reservation stations or load/store queues are
  exhausted — releases of *earlier* instructions are already scheduled, so
  O(1) ring buffers (:class:`OccupancyWindow`) answer every constraint;
- **issue**: data-ready (producer completion via dependence distances) and
  functional-unit constrained; divides occupy their unit unpipelined; an
  in-order machine additionally issues in program order;
- **completion**: class latency in cycles (fixed logic depth / FO4 stage),
  with loads paying the d-L1 / L2 / memory latency of whichever level hits
  and memory-level misses bounded by the MSHR pool (limited memory-level
  parallelism);
- **retire**: in order, width per cycle.

Simplifications relative to a full performance simulator, none of which
the paper's studies are sensitive to: no memory-level disambiguation or
store-to-load forwarding (dependences are explicit in the trace), and a
fetch queue deep enough that dispatch stalls do not back-pressure fetch
timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
from .branch import OneBitBHT
from .config import MachineConfig
from .memory import StackDistanceMemory
from .resources import OccupancyWindow, ThroughputLimiter
from .results import ActivityCounts


@dataclass
class PipelineOutcome:
    """Raw timing outcome: total cycles plus activity counts."""

    cycles: int
    counts: ActivityCounts


def run_pipeline(
    trace: Trace,
    config: MachineConfig,
    memory=None,
    predictor: Optional[OneBitBHT] = None,
) -> PipelineOutcome:
    """Schedule ``trace`` on ``config``; returns cycles and activity counts.

    ``memory`` is any object with the
    :class:`~repro.simulator.memory.StackDistanceMemory` interface
    (defaults to a fresh stack-distance model for the config);
    ``predictor`` is any object with a ``predict_and_update(site, taken)``
    method (defaults to a fresh Table 3 :class:`OneBitBHT`).
    """
    if memory is None:
        memory = StackDistanceMemory(config)
    if predictor is None:
        predictor = OneBitBHT()

    # Next-line prefetcher: a memory access that continues a sequential
    # block run is covered by the prefetch issued on its predecessor, so a
    # would-be miss is serviced at L1 latency (the traffic still flows for
    # power accounting).  Flags are derived from the concrete block stream.
    prefetch = config.prefetch
    if prefetch:
        import numpy as np

        mem_mask = trace.mem_block >= 0
        blocks = trace.mem_block[mem_mask]
        flags = np.zeros(blocks.size, dtype=bool)
        if blocks.size > 1:
            flags[1:] = blocks[1:] == blocks[:-1] + 1
        sequential_full = np.zeros(len(trace), dtype=bool)
        sequential_full[np.flatnonzero(mem_mask)] = flags
        sequential = sequential_full.tolist()
    else:
        sequential = None

    # Localize trace columns and config scalars: the loop below is the hot
    # path of the whole library.
    ops = trace.op.tolist()
    src1 = trace.src1.tolist()
    src2 = trace.src2.tolist()
    mem_block = trace.mem_block.tolist()
    data_reuse = trace.data_reuse.tolist()
    iblocks = trace.iblock.tolist()
    instr_reuse = trace.instr_reuse.tolist()
    takens = trace.taken.tolist()
    sites = trace.branch_site.tolist()
    n = len(ops)

    frontend = config.frontend_stages
    in_order = config.in_order
    lat_int = config.op_latency(OP_INT)
    lat_mul = config.op_latency(OP_INT_MUL)
    lat_fp = config.op_latency(OP_FP)
    lat_div = config.op_latency(OP_FP_DIV)
    lat_store = config.op_latency(OP_STORE)
    lat_branch = config.op_latency(OP_BRANCH)
    lat_l1 = config.data_latency("l1")
    lat_l2 = config.data_latency("l2")
    lat_mem = config.data_latency("mem")
    pen_l2 = config.fetch_penalty("l2")
    pen_mem = config.fetch_penalty("mem")
    dl1_latency = config.dl1_latency

    fetch_limiter = ThroughputLimiter(config.width)
    dispatch_limiter = ThroughputLimiter(config.dispatch_rate)
    retire_limiter = ThroughputLimiter(config.width)

    rob = OccupancyWindow(config.rob_size)
    gpr = OccupancyWindow(config.gpr_rename)
    fpr = OccupancyWindow(config.fpr_rename)
    fx_rs = OccupancyWindow(config.fx_resv)
    fp_rs = OccupancyWindow(config.fp_resv)
    br_rs = OccupancyWindow(config.br_resv)
    load_queue = OccupancyWindow(config.ls_queue)
    store_q = OccupancyWindow(config.store_queue)
    fxu = OccupancyWindow(config.functional_units)
    fpu = OccupancyWindow(config.functional_units)
    lsu = OccupancyWindow(config.functional_units)
    bru = OccupancyWindow(config.functional_units)
    mshrs = OccupancyWindow(config.mshr_count)

    data_access = memory.data_access
    instr_access = memory.instr_access
    predict_and_update = predictor.predict_and_update

    completion = [0] * n
    counts = ActivityCounts()
    counts.instructions = n

    fetch_available = 0
    last_dispatch = 0
    last_issue = 0
    last_retire = 0

    for i in range(n):
        op = ops[i]

        # ---- fetch ------------------------------------------------------
        reuse = instr_reuse[i]
        if reuse >= 0:  # new fetch block
            level = instr_access(iblocks[i], reuse)
            if level != "l1":
                fetch_available += pen_l2 if level == "l2" else pen_mem
        fetch_time = fetch_limiter.next_slot(fetch_available)

        # ---- dispatch ----------------------------------------------------
        disp = fetch_time + frontend
        if disp < last_dispatch:
            disp = last_dispatch
        free = rob.next_free()
        if free > disp:
            disp = free
        if op == OP_INT or op == OP_INT_MUL:
            rs_window = fx_rs
            fu = fxu
            reg = gpr
            latency = lat_int if op == OP_INT else lat_mul
        elif op == OP_FP or op == OP_FP_DIV:
            rs_window = fp_rs
            fu = fpu
            reg = fpr
            latency = lat_fp if op == OP_FP else lat_div
        elif op == OP_LOAD:
            rs_window = load_queue
            fu = lsu
            reg = gpr
            latency = 0  # resolved after the cache access below
        elif op == OP_STORE:
            rs_window = load_queue
            fu = lsu
            reg = None
            latency = lat_store
            free = store_q.next_free()
            if free > disp:
                disp = free
        else:  # OP_BRANCH
            rs_window = br_rs
            fu = bru
            reg = None
            latency = lat_branch
        free = rs_window.next_free()
        if free > disp:
            disp = free
        if reg is not None:
            free = reg.next_free()
            if free > disp:
                disp = free
        disp = dispatch_limiter.next_slot(disp)
        last_dispatch = disp

        # ---- resolve load service level (timing-free cache state update) --
        memory_miss = False
        if op == OP_LOAD:
            level = data_access(mem_block[i], data_reuse[i])
            if level == "l1":
                latency = lat_l1
            elif level == "l2":
                latency = lat_l2
            else:
                latency = lat_mem
                memory_miss = True
            if prefetch and latency != lat_l1 and sequential[i]:
                # covered by the next-line prefetch of the previous access
                latency = lat_l1
                memory_miss = False
                counts.prefetch_covered += 1
            counts.loads += 1

        # ---- issue -------------------------------------------------------
        ready = disp + 1
        distance = src1[i]
        if distance:
            producer = completion[i - distance]
            if producer > ready:
                ready = producer
        distance = src2[i]
        if distance:
            producer = completion[i - distance]
            if producer > ready:
                ready = producer
        if in_order and ready < last_issue:
            ready = last_issue
        issue = fu.next_free()
        if issue < ready:
            issue = ready
        # A load missing all the way to memory needs a free MSHR: the pool
        # bounds memory-level parallelism.
        if memory_miss:
            free = mshrs.next_free()
            if free > issue:
                issue = free
        # Divides and multiplies occupy their unit unpipelined; everything
        # else is fully pipelined (one issue slot per cycle per unit).
        if op == OP_FP_DIV or op == OP_INT_MUL:
            fu.acquire(issue + latency)
        else:
            fu.acquire(issue + 1)
        if memory_miss:
            mshrs.acquire(issue + latency)
        last_issue = issue

        # ---- execute / complete ------------------------------------------
        if op == OP_LOAD:
            pass  # level, latency and counts handled above
        elif op == OP_STORE:
            # Stores update the hierarchy for state (write-allocate) but
            # commit asynchronously from the store queue.
            data_access(mem_block[i], data_reuse[i])
            counts.stores += 1
        elif op == OP_INT:
            counts.int_ops += 1
        elif op == OP_INT_MUL:
            counts.int_mul_ops += 1
        elif op == OP_FP:
            counts.fp_ops += 1
        elif op == OP_FP_DIV:
            counts.fp_div_ops += 1
        comp = issue + latency
        completion[i] = comp

        if op == OP_BRANCH:
            counts.branches += 1
            if not predict_and_update(sites[i], takens[i]):
                counts.mispredicts += 1
                if comp + 1 > fetch_available:
                    fetch_available = comp + 1

        # ---- retire -------------------------------------------------------
        rt = comp + 1
        if rt < last_retire:
            rt = last_retire
        rt = retire_limiter.next_slot(rt)
        last_retire = rt

        # ---- release resources -------------------------------------------
        rob.acquire(rt)
        if reg is not None:
            reg.acquire(rt)
        if op == OP_LOAD:
            rs_window.acquire(comp)
        elif op == OP_STORE:
            rs_window.acquire(comp)
            store_q.acquire(rt + dl1_latency)
        else:
            rs_window.acquire(issue + 1)

        # ---- register file traffic ----------------------------------------
        reads = (1 if src1[i] else 0) + (1 if src2[i] else 0)
        if op == OP_FP or op == OP_FP_DIV:
            counts.fpr_reads += reads
            counts.fpr_writes += 1
        else:
            counts.gpr_reads += reads
            if op == OP_INT or op == OP_INT_MUL or op == OP_LOAD:
                counts.gpr_writes += 1

    counts.cycles = last_retire
    memory_counts = memory.counts()
    counts.il1_accesses = memory_counts["il1_accesses"]
    counts.il1_misses = memory_counts["il1_misses"]
    counts.dl1_accesses = memory_counts["dl1_accesses"]
    counts.dl1_misses = memory_counts["dl1_misses"]
    counts.l2_accesses = memory_counts["l2_accesses"]
    counts.l2_misses = memory_counts["l2_misses"]
    counts.memory_accesses = memory_counts["memory_accesses"]

    return PipelineOutcome(cycles=last_retire, counts=counts)
