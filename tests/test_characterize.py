"""Tests for workload characterization."""

import numpy as np
import pytest

from repro.workloads import (
    branch_predictability,
    characterize,
    dataflow_ilp,
    generate_trace,
    get_profile,
    instruction_miss_rate_curve,
    miss_rate_curve,
)
from repro.workloads.trace import NO_DATA, NO_FETCH, OP_INT, Trace


def chain_trace(n=64, distance=1):
    """Synthetic trace of pure int ops in a single dependence chain."""
    src1 = np.zeros(n, dtype=np.int32)
    src1[distance:] = distance
    return Trace(
        name="chain",
        op=np.full(n, OP_INT, dtype=np.uint8),
        src1=src1,
        src2=np.zeros(n, dtype=np.int32),
        mem_block=np.full(n, -1, dtype=np.int64),
        data_reuse=np.full(n, NO_DATA, dtype=np.int64),
        iblock=np.zeros(n, dtype=np.int32),
        instr_reuse=np.concatenate(
            [[1], np.full(n - 1, NO_FETCH)]
        ).astype(np.int64),
        taken=np.zeros(n, dtype=bool),
        branch_site=np.full(n, -1, dtype=np.int32),
    )


class TestDataflowILP:
    def test_serial_chain_has_unit_ilp(self):
        assert dataflow_ilp(chain_trace(distance=1)) == pytest.approx(1.0)

    def test_distance_k_chain_has_ilp_k(self):
        assert dataflow_ilp(chain_trace(n=64, distance=4)) == pytest.approx(
            4.0, rel=0.1
        )

    def test_independent_ops_have_ilp_n(self):
        trace = chain_trace(n=32, distance=1)
        trace.src1[:] = 0  # no dependences at all
        assert dataflow_ilp(trace) == pytest.approx(32.0)

    def test_window_cannot_increase_ilp_much(self):
        trace = generate_trace(get_profile("mesa"), 4000, seed=1)
        infinite = dataflow_ilp(trace)
        windowed = dataflow_ilp(trace, window=64)
        assert windowed <= infinite * 1.05

    def test_high_ilp_benchmark_beats_low(self):
        mesa = generate_trace(get_profile("mesa"), 4000, seed=1)
        mcf = generate_trace(get_profile("mcf"), 4000, seed=1)
        assert dataflow_ilp(mesa) > dataflow_ilp(mcf)


class TestPredictability:
    def test_no_branches_is_perfect(self):
        assert branch_predictability(chain_trace()) == 1.0

    def test_predictable_benchmark_beats_branchy(self):
        mesa = generate_trace(get_profile("mesa"), 8000, seed=1)
        gcc = generate_trace(get_profile("gcc"), 8000, seed=1)
        assert branch_predictability(mesa) > branch_predictability(gcc)


class TestMissCurves:
    def test_monotone_non_increasing(self):
        trace = generate_trace(get_profile("twolf"), 8000, seed=1)
        curve = miss_rate_curve(trace)
        values = [curve[c] for c in sorted(curve)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_no_memory_ops_gives_zero(self):
        curve = miss_rate_curve(chain_trace())
        assert all(v == 0.0 for v in curve.values())

    def test_instruction_curve_monotone(self):
        trace = generate_trace(get_profile("jbb"), 8000, seed=1)
        curve = instruction_miss_rate_curve(trace)
        values = [curve[c] for c in sorted(curve)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_mcf_missier_than_gzip(self):
        mcf = miss_rate_curve(generate_trace(get_profile("mcf"), 8000, seed=1))
        gzip = miss_rate_curve(generate_trace(get_profile("gzip"), 8000, seed=1))
        assert mcf[16384] > gzip[16384]


class TestCharacterize:
    def test_full_character(self):
        trace = generate_trace(get_profile("ammp"), 6000, seed=1)
        character = characterize(trace)
        assert character.benchmark == "ammp"
        assert character.instructions == 6000
        assert character.ilp_infinite >= character.ilp_window_64 * 0.95
        assert 0.5 <= character.branch_predictability <= 1.0
        assert character.footprint_blocks > 0

    def test_memory_boundedness_orders_suite(self):
        """mcf misses a 2MB-class L2 (16,384 blocks) more often than gzip."""
        mcf = characterize(generate_trace(get_profile("mcf"), 8000, seed=1))
        gzip = characterize(generate_trace(get_profile("gzip"), 8000, seed=1))
        assert mcf.data_miss_curve[16384] > gzip.data_miss_curve[16384]
