"""Tests for the Trace container and its validation."""

import dataclasses

import numpy as np
import pytest

from repro.workloads import Trace, TraceError, generate_trace, get_profile
from repro.workloads.trace import NO_DATA, NO_FETCH, OP_BRANCH, OP_INT, OP_LOAD


def make_trace(**overrides):
    n = 4
    kwargs = dict(
        name="toy",
        op=np.array([OP_INT, OP_LOAD, OP_INT, OP_INT], dtype=np.uint8),
        src1=np.array([0, 1, 1, 2], dtype=np.int32),
        src2=np.zeros(n, dtype=np.int32),
        mem_block=np.array([-1, 7, -1, -1], dtype=np.int64),
        data_reuse=np.array([NO_DATA, 5, NO_DATA, NO_DATA], dtype=np.int64),
        iblock=np.zeros(n, dtype=np.int32),
        instr_reuse=np.array([3, NO_FETCH, NO_FETCH, NO_FETCH], dtype=np.int64),
        taken=np.zeros(n, dtype=bool),
        branch_site=np.full(n, -1, dtype=np.int32),
    )
    kwargs.update(overrides)
    return Trace(**kwargs)


class TestValidation:
    def test_valid_trace(self):
        assert len(make_trace()) == 4

    def test_rejects_empty(self):
        with pytest.raises(TraceError, match="empty"):
            make_trace(
                op=np.empty(0, dtype=np.uint8),
                src1=np.empty(0, dtype=np.int32),
                src2=np.empty(0, dtype=np.int32),
                mem_block=np.empty(0, dtype=np.int64),
                data_reuse=np.empty(0, dtype=np.int64),
                iblock=np.empty(0, dtype=np.int32),
                instr_reuse=np.empty(0, dtype=np.int64),
                taken=np.empty(0, dtype=bool),
                branch_site=np.empty(0, dtype=np.int32),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(TraceError, match="src1"):
            make_trace(src1=np.zeros(3, dtype=np.int32))

    def test_rejects_unknown_op_codes(self):
        with pytest.raises(TraceError, match="op"):
            make_trace(op=np.array([0, 1, 2, 99], dtype=np.uint8))

    def test_rejects_dependence_before_start(self):
        with pytest.raises(TraceError, match="before trace start"):
            make_trace(src1=np.array([1, 0, 0, 0], dtype=np.int32))

    def test_rejects_negative_dependence(self):
        with pytest.raises(TraceError, match="negative"):
            make_trace(src1=np.array([0, -1, 0, 0], dtype=np.int32))

    def test_rejects_memory_op_without_block(self):
        with pytest.raises(TraceError, match="block"):
            make_trace(mem_block=np.array([-1, -1, -1, -1], dtype=np.int64))

    def test_rejects_memory_op_without_reuse(self):
        with pytest.raises(TraceError, match="reuse"):
            make_trace(
                data_reuse=np.array(
                    [NO_DATA, NO_DATA, NO_DATA, NO_DATA], dtype=np.int64
                )
            )

    def test_rejects_reuse_on_non_memory_op(self):
        with pytest.raises(TraceError, match="non-memory"):
            make_trace(
                data_reuse=np.array([4, 5, NO_DATA, NO_DATA], dtype=np.int64)
            )

    def test_rejects_non_positive_ref_instructions(self):
        with pytest.raises(TraceError, match="ref_instructions"):
            make_trace(ref_instructions=0.0)

    def test_rejects_branch_without_site(self):
        with pytest.raises(TraceError, match="branch sites"):
            make_trace(
                op=np.array([OP_INT, OP_LOAD, OP_BRANCH, OP_INT], dtype=np.uint8)
            )

    def test_rejects_taken_on_non_branch(self):
        with pytest.raises(TraceError, match="taken"):
            make_trace(taken=np.array([False, False, True, False]))

    def test_rejects_non_branch_aliasing_a_branch_site(self):
        """A non-branch carrying a real branch's site and the opposite
        outcome: the scalar warming pass and the batch kernel would
        replay different branch streams from it."""
        trace = generate_trace(get_profile("gcc"), 2000, seed=0)
        branches = np.flatnonzero(trace.op == OP_BRANCH)
        last = np.flatnonzero(trace.op != OP_BRANCH)[-1]
        site = trace.branch_site.copy()
        taken = trace.taken.copy()
        site[last] = site[branches[0]]
        taken[last] = not taken[branches[0]]
        with pytest.raises(TraceError, match="branch sites"):
            dataclasses.replace(trace, branch_site=site, taken=taken)


class TestSummaries:
    def test_mix_fractions(self):
        trace = make_trace()
        mix = trace.mix()
        assert mix["int"] == pytest.approx(0.75)
        assert mix["load"] == pytest.approx(0.25)

    def test_footprints(self):
        trace = make_trace()
        assert trace.data_footprint() == 1

    def test_fetch_events(self):
        assert make_trace().fetch_events() == 1
