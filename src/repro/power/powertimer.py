"""PowerTimer-style power evaluation.

:class:`PowerModel` combines the per-structure models into a total watts
figure and a named breakdown, attached to a
:class:`~repro.simulator.results.SimulationResult` after timing simulation
— mirroring how PowerTimer derives power from Turandot's resource
utilization statistics [1].
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from . import structures

if TYPE_CHECKING:  # imported lazily to avoid a cycle with simulator.config
    from ..simulator.config import ConfigColumns, MachineConfig
    from ..simulator.results import ActivityCounts, SimulationResult


@dataclass(frozen=True)
class PowerBreakdown:
    """Watts by structure, plus the total."""

    components: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.components.values())


def _count_columns(counts: Sequence[ActivityCounts]) -> SimpleNamespace:
    """One int64 column per :data:`~repro.power.structures.ACTIVITY_FIELDS`."""
    values = attrgetter(*structures.ACTIVITY_FIELDS)
    matrix = np.array(list(map(values, counts)), dtype=np.int64).T
    return SimpleNamespace(**dict(zip(structures.ACTIVITY_FIELDS, matrix)))


class PowerModel:
    """Evaluates total power for blocks of (config, activity) pairs.

    The components are PowerTimer's unscaled structure models.  One
    formula serves every caller: :meth:`evaluate` computes a whole
    simulated block at once, and :meth:`breakdown` one design as a block
    of one.
    """

    def __init__(self) -> None:
        self._components: Dict[
            str, Callable[[ConfigColumns, SimpleNamespace], np.ndarray]
        ] = {
            "clock": lambda c, a: structures.clock_power(c),
            "frontend": structures.frontend_power,
            "regfile": structures.regfile_power,
            "issue_queues": structures.issue_queue_power,
            "lsq": structures.lsq_power,
            "functional_units": structures.fu_power,
            "caches": structures.cache_power,
            "base_leakage": lambda c, a: structures.base_leakage(c),
        }

    def _rows(
        self,
        configs: Union[Sequence[MachineConfig], ConfigColumns],
        counts: Sequence[ActivityCounts],
    ) -> List[Tuple[float, ...]]:
        """Per-structure watts of each design, in component order."""
        # Imported lazily: repro.simulator.config itself imports
        # repro.power (for CACTI latencies).
        from ..simulator.config import config_columns

        block = config_columns(configs)
        columns = _count_columns(counts)
        components = [
            model(block, columns).tolist() for model in self._components.values()
        ]
        return list(zip(*components))

    def breakdown(
        self, config: MachineConfig, counts: ActivityCounts
    ) -> PowerBreakdown:
        """Per-structure watts for one simulated execution."""
        (row,) = self._rows([config], [counts])
        return PowerBreakdown(components=dict(zip(self._components, row)))

    def evaluate(
        self,
        configs: Union[Sequence[MachineConfig], ConfigColumns],
        results: Sequence[SimulationResult],
    ) -> Sequence[SimulationResult]:
        """Attach watts and the breakdown to each result of a block (in place).

        ``configs`` is the block the results were simulated on, in the
        same order, as configs or already resolved by
        :func:`~repro.simulator.config.config_columns`.  A result's watts
        are its components summed in order from 0, as
        :attr:`PowerBreakdown.total` sums them.
        """
        rows = self._rows(configs, [result.counts for result in results])
        for result, row in zip(results, rows):
            result.power_breakdown = dict(zip(self._components, row))
            result.watts = sum(row)
        return results
