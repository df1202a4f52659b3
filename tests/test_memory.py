"""Tests for the stack-distance memory model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator import (
    StackDistanceMemory,
    associativity_factor,
    baseline_config,
)


class TestAssociativityFactor:
    def test_direct_mapped_half(self):
        assert associativity_factor(1) == pytest.approx(0.5)

    def test_monotone_in_ways(self):
        factors = [associativity_factor(a) for a in (1, 2, 4, 8, 16)]
        assert factors == sorted(factors)

    def test_approaches_one(self):
        assert associativity_factor(16) > 0.99

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            associativity_factor(0)


class TestStackDistanceMemory:
    def test_short_reuse_hits_l1(self):
        memory = StackDistanceMemory(baseline_config())
        assert memory.data_access(0, reuse=1) == "l1"

    def test_medium_reuse_hits_l2(self):
        memory = StackDistanceMemory(baseline_config())
        assert memory.data_access(0, reuse=4000) == "l2"

    def test_long_reuse_goes_to_memory(self):
        memory = StackDistanceMemory(baseline_config())
        assert memory.data_access(0, reuse=1 << 30) == "mem"

    def test_instruction_path(self):
        memory = StackDistanceMemory(baseline_config())
        assert memory.instr_access(0, reuse=4) == "l1"
        assert memory.instr_access(0, reuse=1 << 30) == "mem"

    def test_counts_consistency(self):
        memory = StackDistanceMemory(baseline_config())
        for reuse in (1, 4000, 1 << 30, 2, 1 << 30):
            memory.data_access(0, reuse)
        counts = memory.counts()
        assert counts["dl1_accesses"] == 5
        assert counts["dl1_misses"] == 3
        assert counts["l2_accesses"] == 3
        assert counts["l2_misses"] == 2
        assert counts["memory_accesses"] == 2

    def test_effective_capacity_includes_associativity(self):
        config = baseline_config()  # dl1: 32KB 2-way
        memory = StackDistanceMemory(config)
        assert memory.dl1_effective == pytest.approx(32 * 8 * 0.75)

    def test_l2_shares(self):
        config = baseline_config()
        memory = StackDistanceMemory(config)
        assert memory.l2_data_effective > memory.l2_instr_effective

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 1 << 25))
    def test_bigger_cache_is_never_worse(self, reuse):
        small = StackDistanceMemory(baseline_config().with_overrides(dl1_kb=8.0))
        large = StackDistanceMemory(baseline_config().with_overrides(dl1_kb=128.0))
        order = {"l1": 0, "l2": 1, "mem": 2}
        assert order[large.data_access(0, reuse)] <= order[small.data_access(0, reuse)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 1 << 25), st.integers(1, 1 << 25))
    def test_shorter_reuse_is_never_worse(self, a, b):
        memory = StackDistanceMemory(baseline_config())
        short, long = sorted((a, b))
        order = {"l1": 0, "l2": 1, "mem": 2}
        assert order[memory.data_access(0, short)] <= order[memory.data_access(0, long)]
