"""Tests for occupancy windows and throughput limiters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator import OccupancyWindow, ResourceError, ThroughputLimiter


class TestOccupancyWindow:
    def test_first_acquisitions_are_free(self):
        window = OccupancyWindow(3)
        assert window.acquire(10) == 0
        assert window.acquire(20) == 0
        assert window.acquire(30) == 0

    def test_wraps_to_oldest_release(self):
        window = OccupancyWindow(2)
        window.acquire(10)
        window.acquire(20)
        assert window.acquire(30) == 10   # slot freed by the first occupant
        assert window.acquire(40) == 20

    def test_capacity_one_serializes(self):
        window = OccupancyWindow(1)
        window.acquire(5)
        assert window.acquire(9) == 5
        assert window.acquire(12) == 9

    def test_next_free_peeks_without_consuming(self):
        window = OccupancyWindow(1)
        window.acquire(7)
        assert window.next_free() == 7
        assert window.next_free() == 7
        assert window.acquire(9) == 7

    def test_rejects_zero_capacity(self):
        with pytest.raises(ResourceError):
            OccupancyWindow(0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.lists(st.integers(0, 100), min_size=1, max_size=60))
    def test_constraint_is_release_of_nth_previous(self, capacity, releases):
        window = OccupancyWindow(capacity)
        constraints = [window.acquire(r) for r in releases]
        for k, constraint in enumerate(constraints):
            expected = releases[k - capacity] if k >= capacity else 0
            assert constraint == expected


class TestThroughputLimiter:
    def test_allows_rate_per_cycle(self):
        limiter = ThroughputLimiter(2)
        assert limiter.next_slot(0) == 0
        assert limiter.next_slot(0) == 0
        assert limiter.next_slot(0) == 1  # third event of cycle 0 slips

    def test_later_request_not_delayed(self):
        limiter = ThroughputLimiter(1)
        assert limiter.next_slot(0) == 0
        assert limiter.next_slot(10) == 10

    def test_back_to_back_serialization(self):
        limiter = ThroughputLimiter(1)
        slots = [limiter.next_slot(0) for _ in range(5)]
        assert slots == [0, 1, 2, 3, 4]

    def test_rejects_zero_rate(self):
        with pytest.raises(ResourceError):
            ThroughputLimiter(0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.lists(st.integers(0, 30), min_size=1, max_size=80))
    def test_never_exceeds_rate_per_cycle(self, rate, earliest_times):
        # feed monotonically non-decreasing requests
        earliest_times = sorted(earliest_times)
        limiter = ThroughputLimiter(rate)
        slots = [limiter.next_slot(t) for t in earliest_times]
        from collections import Counter

        per_cycle = Counter(slots)
        assert max(per_cycle.values()) <= rate
        # events never run before they are ready
        for t, slot in zip(earliest_times, slots):
            assert slot >= t
