"""Finite-resource occupancy tracking for the one-pass timing model.

The timing model schedules each instruction exactly once, in program
order.  A structure with ``N`` entries (reservation station, load/store
queue, rename register pool, reorder buffer, or an ``N``-unit functional
unit pool) constrains instruction ``k`` of its class: the new entry cannot
be acquired before the entry acquired ``N`` allocations earlier has been
released.  Because releases of *earlier* instructions are already known
when instruction ``k`` is scheduled, a ring buffer of the last ``N``
release times answers the constraint in O(1).
"""

from __future__ import annotations

from typing import List


class ResourceError(ValueError):
    """Raised for invalid resource capacities."""


class OccupancyWindow:
    """Ring buffer answering "when is the next slot of this pool free?".

    ``acquire(release_time)`` returns the earliest cycle the incoming
    occupant may take a slot — i.e. the release time recorded ``capacity``
    acquisitions ago — then records the occupant's own ``release_time``.
    """

    __slots__ = ("capacity", "_releases", "_head", "count")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._releases: List[int] = [0] * capacity
        self._head = 0
        self.count = 0

    def acquire(self, release_time: int) -> int:
        """Earliest acquisition cycle; records this occupant's release."""
        earliest = self._releases[self._head]
        self._releases[self._head] = release_time
        self._head += 1
        if self._head == self.capacity:
            self._head = 0
        self.count += 1
        return earliest

    def next_free(self) -> int:
        """Release time of the oldest slot without consuming it."""
        return self._releases[self._head]


class ThroughputLimiter:
    """Bandwidth limit: at most ``rate`` events per cycle.

    Equivalent to an :class:`OccupancyWindow` whose occupants hold a slot
    for exactly one cycle, but kept separate for clarity at call sites
    (fetch/decode/dispatch/retire bandwidth).
    """

    __slots__ = ("_window", "rate")

    def __init__(self, rate: int):
        if rate < 1:
            raise ResourceError(f"rate must be >= 1, got {rate}")
        self.rate = rate
        self._window = OccupancyWindow(rate)

    def next_slot(self, earliest: int) -> int:
        """Cycle at which the next event may proceed, at or after ``earliest``."""
        slot = self._window.next_free()
        time = earliest if earliest > slot else slot
        self._window.acquire(time + 1)
        return time
