"""Branch predictor.

Table 3's baseline machine carries a 16k-entry 1-bit branch history table,
and no study varies it, so it is the one predictor the simulator models.
"""

from __future__ import annotations

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
