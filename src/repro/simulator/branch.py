"""Branch predictor.

Table 3's baseline machine carries a 16k-entry 1-bit branch history table,
and no study varies it, so it is the one predictor the simulator models.
"""

from __future__ import annotations

from typing import List, Tuple

from ..workloads.trace import OP_BRANCH, Trace

#: Table 3's branch history table size.
BHT_ENTRIES = 16 * 1024


class OneBitBHT:
    """1-bit branch history table — the Table 3 baseline."""

    def __init__(self) -> None:
        self._table = [True] * BHT_ENTRIES  # initialized taken

    def predict_and_update(self, site: int, taken: bool) -> bool:
        """Predict the branch at ``site``, learn ``taken``, return correctness."""
        index = site % BHT_ENTRIES
        correct = self._table[index] == taken
        self._table[index] = taken
        return correct


def branch_stream(trace: Trace) -> List[Tuple[int, bool]]:
    """The trace's ``(site, taken)`` branch stream, in program order.

    Memoized on the trace, so the scalar warming pass and the batch
    kernel's mispredict replay read one stream that lives and dies with
    the trace object it was built from.
    """

    def build() -> List[Tuple[int, bool]]:
        mask = trace.op == OP_BRANCH
        return list(
            zip(trace.branch_site[mask].tolist(), trace.taken[mask].tolist())
        )

    return trace.derived(("simulator", "branch_stream"), build)
