"""Blockwise exhaustive-sweep engine (the paper's Section 1 promise).

The whole argument of Lee & Brooks is that regression predictions are
cheap enough to characterize the *entire* 262,500-point exploration space
exhaustively.  This module delivers that sweep without ever materializing
the space: the engine sweeps a :class:`~repro.designspace.PointSet` (an
index array) in fixed-size blocks for any number of benchmarks' fitted
bips/watts models at once.  The point set's indices decode into grid level
indices by mixed radix once; every distinct design layout assembles each
block's design matrix by gathering from per-component tables, and each model
evaluates that matrix in one batched numpy call; *streaming reducers* fold
every block into a compact running state — the pareto frontier by delay
bin, the efficiency argmax/top-k, per-depth efficiency distributions —
so peak memory stays proportional to the block size, not ``|S|``.
Explicit point lists sweep the same way once
:meth:`PointSet.from_points` has turned them into indices.

The sweep runs in one process: the whole exploration space predicts in
a fraction of a second, so there is nothing to gain from fanning blocks
out.  Reducers are partition independent: results are identical for any
block size, and identical to reducing a monolithic whole-space
prediction table.

The frontier construction (``pareto_indices`` / ``discretized_frontier``)
lives here — below the studies layer — so both the streaming engine and
the Study-1 code share one implementation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..designspace import DesignPoint, DesignSpace, PointSet
from ..designspace.pointset import encoded_level_tables, raw_level_tables
from ..metrics import block_metrics
from ..obs.metrics import get_registry
from ..obs.tracing import get_tracer
from ..regression import FittedModel
from ..regression.terms import BoundTerm

#: Default number of design points predicted per block.
DEFAULT_BLOCK_SIZE = 8192


class SweepError(ValueError):
    """Raised for malformed sweep configurations."""


# -- frontier mathematics ------------------------------------------------------


def pareto_indices(delay: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Indices of non-dominated points (minimize delay and power).

    Sort by delay then sweep with a running power minimum: a design is on
    the frontier iff no faster-or-equal design needs less-or-equal power.
    """
    delay = np.asarray(delay, dtype=float)
    power = np.asarray(power, dtype=float)
    if delay.shape != power.shape:
        raise ValueError("delay and power must align")
    order = np.lexsort((power, delay))  # by delay, ties by power
    kept = []
    best_power = np.inf
    for index in order:
        # Strictly better power than anything at least as fast.
        if power[index] < best_power:
            kept.append(index)
            best_power = power[index]
    return np.array(sorted(kept), dtype=int)


def _binned_power_minima(
    delay: np.ndarray, power: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Index of the power-minimizing point within each delay bin.

    Bins are half-open except the last (closed), matching the paper's
    delay discretization; empty bins are skipped.  Ties resolve to the
    lowest index, as ``argmin`` does.
    """
    bins = edges.size - 1
    chosen = []
    for b in range(bins):
        low, high = edges[b], edges[b + 1]
        if b == bins - 1:
            mask = (delay >= low) & (delay <= high)
        else:
            mask = (delay >= low) & (delay < high)
        candidates = np.flatnonzero(mask)
        if candidates.size:
            chosen.append(candidates[power[candidates].argmin()])
    return np.array(chosen, dtype=int)


def discretized_frontier(
    delay: np.ndarray, power: np.ndarray, bins: int = 50
) -> np.ndarray:
    """The paper's construction: min-power design per delay bin, pruned.

    The delay range is discretized into ``bins`` targets; within each bin
    the power-minimizing design is selected, and dominated selections are
    pruned afterwards.
    """
    delay = np.asarray(delay, dtype=float)
    power = np.asarray(power, dtype=float)
    if bins < 1:
        raise ValueError(f"bins must be positive, got {bins}")
    edges = np.linspace(delay.min(), delay.max(), bins + 1)
    chosen = _binned_power_minima(delay, power, edges)
    keep = pareto_indices(delay[chosen], power[chosen])
    return chosen[keep]


def strict_pareto_mask(delay: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Boolean mask of points not *strictly* dominated in both axes.

    A point is dropped only when some other point has strictly smaller
    delay *and* strictly smaller power.  Weakly dominated points (ties in
    either axis) are retained, which is exactly the invariant the
    streaming frontier reducer needs: every design that
    :func:`discretized_frontier` can emit for the full set survives this
    filter (see :class:`ParetoFrontierReducer`).
    """
    delay = np.asarray(delay, dtype=float)
    power = np.asarray(power, dtype=float)
    if delay.shape != power.shape:
        raise ValueError("delay and power must align")
    n = delay.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(delay, kind="stable")
    sorted_delay = delay[order]
    sorted_power = power[order]
    prefix_min = np.minimum.accumulate(sorted_power)
    # For each point, the best power among *strictly* smaller delays:
    # the prefix minimum just before its delay-group starts.
    first_of_group = np.searchsorted(sorted_delay, sorted_delay, side="left")
    best_before = np.where(
        first_of_group > 0,
        prefix_min[np.maximum(first_of_group - 1, 0)],
        np.inf,
    )
    keep_sorted = sorted_power <= best_before
    mask = np.zeros(n, dtype=bool)
    mask[order[keep_sorted]] = True
    return mask


def _staircase(delay: np.ndarray, power: np.ndarray):
    """The points where the running power minimum by delay strictly falls.

    Returns (delays ascending, power minima strictly descending): the
    least power among the points at or below each returned delay.
    """
    order = np.argsort(delay, kind="stable")
    delay = delay[order]
    least = np.minimum.accumulate(power[order])
    falls = np.ones(least.size, dtype=bool)
    falls[1:] = least[1:] < least[:-1]
    return delay[falls], least[falls]


# -- prediction ---------------------------------------------------------------


#: Most rows one component's gather table may hold: a term that would
#: grow a component's level cross product past it starts a group of its
#: own (see :func:`_term_groups`).
MAX_COMPONENT_ROWS = 4096


#: Read-only run tables of live layouts, keyed by the run's component and
#: the bytes of its terms' own tables, which fix the run's bytes: bootstrap
#: refits that bind the same knots for a component build and store that
#: run once.
_RUN_TABLES: "weakref.WeakValueDictionary[tuple, np.ndarray]" = (
    weakref.WeakValueDictionary()
)


def _level_grid(cardinalities: Sequence[int]) -> np.ndarray:
    """``(prod, k)`` level indices of a cross product, last parameter fastest."""
    return np.indices(cardinalities).reshape(len(cardinalities), -1).T


def _mixed_radix(
    levels: np.ndarray, columns: Sequence[int], cardinalities: Sequence[int]
) -> np.ndarray:
    """Row codes of ``levels[:, columns]`` in the cross product's order."""
    if len(columns) == 1:
        return levels[:, columns[0]]
    code = levels[:, columns[0]].astype(np.intp)
    for j, cardinality in zip(columns[1:], cardinalities[1:]):
        code *= cardinality
        code += levels[:, j]
    return code


def _term_groups(
    term_columns: Sequence[Tuple[int, ...]], cardinalities: Sequence[int]
) -> List[Tuple[Tuple[int, ...], List[int]]]:
    """Terms joined into components by their shared parameters.

    Returns ``(parameter columns, term positions)`` per group.  A term
    joins every group it shares a parameter with, unless the joined
    parameters' cross product would exceed :data:`MAX_COMPONENT_ROWS`
    rows; then it starts a group of its own.
    """
    groups: List[Tuple[set, List[int]]] = []
    for position, columns in enumerate(term_columns):
        own = set(columns)
        shared = [g for g in groups if g[0] & own]
        joined = own.union(*(g[0] for g in shared))
        if math.prod(cardinalities[j] for j in joined) > MAX_COMPONENT_ROWS:
            shared, joined = [], own
        groups = [g for g in groups if g not in shared]
        groups.append((joined, sorted(sum((g[1] for g in shared), [position]))))
    return [(tuple(sorted(columns)), terms) for columns, terms in groups]


def _run_table(
    columns: Tuple[int, ...],
    sizes: Tuple[int, ...],
    terms: Sequence[Tuple[Tuple[int, ...], np.ndarray]],
    cardinalities: Sequence[int],
) -> Tuple[np.ndarray, tuple]:
    """One run's read-only table over a component, and its key.

    ``terms`` holds each of the run's terms as (its parameter columns,
    its own table over their level cross product); the run copies every
    own table's rows into the component's rows.  A live run with the
    same key is returned instead of building another.
    """
    key = (
        columns,
        sizes,
        tuple((own, table.shape, table.tobytes()) for own, table in terms),
    )
    run = _RUN_TABLES.get(key)
    if run is None:
        grid = _level_grid(sizes)
        run = np.hstack([
            np.take(
                table,
                _mixed_radix(
                    grid,
                    [columns.index(j) for j in own],
                    [cardinalities[j] for j in own],
                ),
                axis=0,
            )
            for own, table in terms
        ])
        run.flags.writeable = False
        _RUN_TABLES[key] = run
    return run, key


class DesignLayout:
    """Gather tables mapping grid level indices to design-matrix columns.

    Every parameter takes a handful of grid levels, and each bound term's
    design columns depend only on its own parameters.  Terms that share
    parameters form a *component*; the layout evaluates every term once
    on its parameters' encoded levels and copies those values into one
    table per component, with a row for each combination of the
    component's levels.  The terms' columns sit in the tables as
    *runs*: each run is a stretch of consecutive design-matrix columns
    from one component.  A block's design matrix then assembles with one
    integer gather per run, indexed by the block's mixed-radix level
    code in that component.  Results are bitwise identical to row-wise
    evaluation: the same elementwise operations run on the same encoded
    values, only once per level combination instead of once per design.
    A component over :data:`MAX_COMPONENT_ROWS` rows splits into smaller
    term groups (see :func:`_term_groups`).

    Layouts compare by value: two layouts are equal when their groups
    and their terms' own tables are bitwise equal, so every model with
    an equal layout can share one design matrix per block
    (:func:`run_sweep`), and equal runs share one table.

    Every term must depend on parameters of ``space``; a term that does
    not raises :class:`SweepError` naming it.
    """

    def __init__(self, bound_terms: Sequence[BoundTerm], space: DesignSpace):
        names = list(space.names)
        cardinalities = [p.cardinality for p in space.parameters]
        encoded = encoded_level_tables(space)
        term_columns: List[Tuple[int, ...]] = []
        for term in bound_terms:
            predictors = term.predictors
            if not predictors or not all(p in names for p in predictors):
                raise SweepError(
                    f"term {', '.join(term.column_names)} (predictors "
                    f"{predictors}) cannot be gathered over space "
                    f"{space.name!r}: a term needs one or more of the "
                    f"space's parameters {space.names}"
                )
            term_columns.append(tuple(names.index(p) for p in predictors))

        groups = _term_groups(term_columns, cardinalities)
        group_of = {p: g for g, (_, terms) in enumerate(groups) for p in terms}
        #: (parameter columns, their cardinalities) of each group.
        self._groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [
            (columns, tuple(cardinalities[j] for j in columns))
            for columns, _ in groups
        ]
        #: (group, table) per run, in design-matrix column order.
        self._runs: List[Tuple[int, np.ndarray]] = []
        keys = []
        terms: List[Tuple[Tuple[int, ...], np.ndarray]] = []
        for position, (term, own) in enumerate(zip(bound_terms, term_columns)):
            grid = _level_grid([cardinalities[j] for j in own])
            terms.append((own, term.design_columns(
                {names[j]: encoded[j][grid[:, k]] for k, j in enumerate(own)}
            )))
            group = group_of[position]
            if group_of.get(position + 1) != group:
                run, key = _run_table(*self._groups[group], terms, cardinalities)
                self._runs.append((group, run))
                keys.append(key)
                terms = []
        #: Design-matrix width: the intercept plus every term's columns.
        self.width = 1 + sum(table.shape[1] for _, table in self._runs)
        self._key = tuple(keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DesignLayout):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def design(self, levels: np.ndarray) -> np.ndarray:
        """The design matrix of an ``(n, P)`` block of level indices.

        Fills one C-order ``(n, 1 + sum of term widths)`` matrix, the
        layout :meth:`FittedModel.predict` builds, so a matvec with a
        model's coefficients rounds exactly as it does there.  Levels
        must lie on the grid, as :func:`index_levels` decodes them: the
        gathers skip their bounds check.
        """
        codes = [
            _mixed_radix(levels, columns, sizes)
            for columns, sizes in self._groups
        ]
        X = np.empty((levels.shape[0], self.width))
        X[:, 0] = 1.0
        column = 1
        for group, table in self._runs:
            width = table.shape[1]
            X[:, column:column + width] = np.take(
                table, codes[group], axis=0, mode="clip"
            )
            column += width
        return X


class _LevelDesignCache:
    """One model evaluated over a design layout.

    :meth:`predict` fills the layout's design matrix for a block of level
    indices and evaluates the model on it; :func:`run_sweep` fills each
    distinct layout once per block and calls :meth:`evaluate` for every
    model that shares it.
    """

    def __init__(
        self,
        model: FittedModel,
        space: DesignSpace,
        layout: Optional[DesignLayout] = None,
    ):
        self.model = model
        self.layout = (
            layout if layout is not None
            else DesignLayout(model.bound_terms, space)
        )

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Predictions from a design matrix of this model's layout."""
        return self.model.spec.transform.inverse(X @ self.model.coefficients)

    def predict(self, levels: np.ndarray) -> np.ndarray:
        """Predictions for an ``(n, P)`` block of level indices."""
        return self.evaluate(self.layout.design(levels))


@dataclass
class BlockPredictor:
    """One benchmark's fitted bips/watts models, evaluated blockwise."""

    benchmark: str
    bips_model: FittedModel
    watts_model: FittedModel
    ref_instructions: float

    def _level_caches(
        self, space: DesignSpace
    ) -> Tuple[_LevelDesignCache, _LevelDesignCache]:
        """The (bips, watts) evaluators over ``space``, built lazily.

        Models bound to the very same term objects (as
        :func:`~repro.regression.fit_models` binds the paper's two specs)
        share one layout, so its tables are built once per predictor.
        """
        cached = self.__dict__.get("_caches")
        if cached is None or cached[0] is not space:
            bips = _LevelDesignCache(self.bips_model, space)
            shared = _same_terms(self.bips_model, self.watts_model)
            watts = _LevelDesignCache(
                self.watts_model, space, bips.layout if shared else None
            )
            cached = (space, bips, watts)
            self.__dict__["_caches"] = cached
        return cached[1:]


def _same_terms(a: FittedModel, b: FittedModel) -> bool:
    """Whether two models are bound to the very same term objects."""
    return len(a.bound_terms) == len(b.bound_terms) and all(
        x is y for x, y in zip(a.bound_terms, b.bound_terms)
    )


@dataclass
class SweepBlock:
    """Predictions for one contiguous chunk of sweep positions."""

    benchmark: str
    indices: np.ndarray      #: sweep positions (global, ascending)
    bips: np.ndarray
    watts: np.ndarray
    delay: np.ndarray
    efficiency: np.ndarray
    raw: Dict[str, np.ndarray] = field(default_factory=dict)

    def metric(self, name: str) -> np.ndarray:
        """One of the four predicted metric columns by name."""
        try:
            return {
                "bips": self.bips,
                "watts": self.watts,
                "delay": self.delay,
                "efficiency": self.efficiency,
            }[name]
        except KeyError:
            raise SweepError(
                f"unknown sweep metric {name!r}; choices are "
                "bips/watts/delay/efficiency"
            ) from None

    def __len__(self) -> int:
        return int(self.indices.size)


# -- streaming reducers --------------------------------------------------------


class SweepReducer:
    """Folds prediction blocks into a compact running state.

    Reducers must be *partition independent*: feeding the same points in
    any block decomposition (including one monolithic block) yields the
    same finalized result.  ``columns`` names the raw parameter columns
    the reducer needs on each block; ``cache_key`` identifies the
    finalized result, so :class:`~repro.studies.common.StudyContext`
    memoizes it per benchmark and point set.
    """

    columns: Tuple[str, ...] = ()

    @property
    def cache_key(self) -> tuple:
        raise NotImplementedError

    def start(self, points: PointSet) -> None:
        """Prepare to reduce a sweep of ``points``, before its first block."""

    def update(self, block: SweepBlock) -> None:
        raise NotImplementedError

    def finalize(self, points: PointSet):
        """Finish the reduction, materializing any retained designs."""
        raise NotImplementedError


@dataclass
class FrontierResult:
    """Finalized pareto frontier: sweep indices plus their coordinates."""

    indices: np.ndarray
    points: List[DesignPoint]
    delay: np.ndarray
    power: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)


class ParetoFrontierReducer(SweepReducer):
    """Streaming pareto-frontier-by-delay-bin (Section 4.2's construction).

    Per block only the strictly-non-dominated (delay, power) candidates
    are retained — for smooth power/delay surfaces that is a vanishing
    fraction of the block — together with the running global delay range.
    Finalization re-runs the paper's min-power-per-delay-bin selection
    and pareto prune over the candidate set with bin edges spanning the
    *global* delay range, which provably reproduces
    ``discretized_frontier`` over the full sweep: any full-set per-bin
    power minimum that the final prune would keep is never strictly
    dominated (a strict dominator selects an even better design into an
    earlier bin, which would prune it), so it survives candidate
    filtering; and ties break identically because candidates stay in
    sweep order.  The same argument holds for any candidate set that
    keeps every design no other design strictly dominates, so before a
    block's own filter the reducer drops the block's designs that the
    running candidates already strictly dominate: a lookup in the
    candidates' staircase (delays ascending, each with the least power
    at or below it) instead of a sort of the whole block.
    """

    def __init__(self, bins: int = 50):
        if bins < 1:
            raise SweepError(f"bins must be positive, got {bins}")
        self.bins = bins
        self._indices: List[np.ndarray] = []
        self._delay: List[np.ndarray] = []
        self._power: List[np.ndarray] = []
        self._delay_min = np.inf
        self._delay_max = -np.inf
        self._stair_delay = np.array([], dtype=float)
        self._stair_power = np.array([], dtype=float)

    @property
    def cache_key(self) -> tuple:
        return ("pareto", self.bins)

    def update(self, block: SweepBlock) -> None:
        if not len(block):
            return
        delay, power = block.delay, block.watts
        self._delay_min = min(self._delay_min, float(delay.min()))
        self._delay_max = max(self._delay_max, float(delay.max()))
        # Candidates strictly faster than each design, and the least
        # power among them.
        faster = np.searchsorted(self._stair_delay, delay, side="left")
        best = np.append(np.inf, self._stair_power)[faster]
        survivors = np.flatnonzero(~(best < power))
        delay, power = delay[survivors], power[survivors]
        keep = strict_pareto_mask(delay, power)
        self._indices.append(block.indices[survivors[keep]])
        self._delay.append(delay[keep])
        self._power.append(power[keep])
        self._stair_delay, self._stair_power = _staircase(
            np.concatenate([self._stair_delay, delay[keep]]),
            np.concatenate([self._stair_power, power[keep]]),
        )

    def finalize(self, points: PointSet) -> FrontierResult:
        if not self._indices:
            empty = np.array([], dtype=float)
            return FrontierResult(
                indices=np.array([], dtype=int),
                points=[],
                delay=empty,
                power=empty,
            )
        indices = np.concatenate(self._indices)
        delay = np.concatenate(self._delay)
        power = np.concatenate(self._power)
        edges = np.linspace(self._delay_min, self._delay_max, self.bins + 1)
        chosen = _binned_power_minima(delay, power, edges)
        keep = pareto_indices(delay[chosen], power[chosen])
        final = chosen[keep]
        return FrontierResult(
            indices=indices[final],
            points=[points[int(i)] for i in indices[final]],
            delay=delay[final],
            power=power[final],
        )


@dataclass
class TopKResult:
    """Finalized argmax/top-k: the best designs with all four metrics."""

    metric: str
    indices: np.ndarray
    points: List[DesignPoint]
    values: np.ndarray
    bips: np.ndarray
    watts: np.ndarray
    delay: np.ndarray
    efficiency: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)


class TopKReducer(SweepReducer):
    """Streaming per-benchmark argmax / top-k of one predicted metric.

    ``k=1`` reproduces ``table.<metric>.argmax()`` over a monolithic
    prediction table exactly, including first-occurrence tie-breaking
    (candidates are ordered by value descending, then sweep index
    ascending).
    """

    _FIELDS = ("values", "bips", "watts", "delay", "efficiency")

    def __init__(self, metric: str = "efficiency", k: int = 1):
        if k < 1:
            raise SweepError(f"k must be positive, got {k}")
        self.metric = metric
        self.k = k
        self._indices = np.array([], dtype=np.int64)
        self._state = {name: np.array([], dtype=float) for name in self._FIELDS}

    @property
    def cache_key(self) -> tuple:
        return ("topk", self.metric, self.k)

    def update(self, block: SweepBlock) -> None:
        if not len(block):
            return
        values = block.metric(self.metric)
        keep = self._candidates(values)
        merged = {
            "values": np.concatenate([self._state["values"], values[keep]]),
            "bips": np.concatenate([self._state["bips"], block.bips[keep]]),
            "watts": np.concatenate([self._state["watts"], block.watts[keep]]),
            "delay": np.concatenate([self._state["delay"], block.delay[keep]]),
            "efficiency": np.concatenate(
                [self._state["efficiency"], block.efficiency[keep]]
            ),
        }
        indices = np.concatenate([self._indices, block.indices[keep]])
        # Highest value first; ties resolve to the lowest sweep index,
        # matching argmax over a whole-space table.
        order = np.lexsort((indices, -merged["values"]))[: self.k]
        self._indices = indices[order]
        self._state = {name: merged[name][order] for name in self._FIELDS}

    def _candidates(self, values: np.ndarray) -> np.ndarray:
        """Positions of the block's designs that can still reach the top k.

        A design below the block's own k-th largest value trails k
        strictly better designs, so it can never rank.  Designs equal to
        that value are kept for the sweep-index tie-break, and NaNs (which
        rank last) are dropped.  A block with fewer than k non-NaN values
        keeps everything.
        """
        ranked = values[~np.isnan(values)]
        if ranked.size < self.k:
            return np.arange(values.size)
        kth = np.partition(ranked, ranked.size - self.k)[ranked.size - self.k]
        return np.flatnonzero(values >= kth)

    def finalize(self, points: PointSet) -> TopKResult:
        return TopKResult(
            metric=self.metric,
            indices=self._indices.copy(),
            points=[points[int(i)] for i in self._indices],
            values=self._state["values"].copy(),
            bips=self._state["bips"].copy(),
            watts=self._state["watts"].copy(),
            delay=self._state["delay"].copy(),
            efficiency=self._state["efficiency"].copy(),
        )


@dataclass
class GroupedResult:
    """Finalized per-level reduction of one metric along one parameter."""

    parameter: str
    metric: str
    values: Dict[float, np.ndarray]       #: per level, in sweep order
    argmax_indices: Dict[float, int]      #: sweep position of each level's best
    argmax_points: Dict[float, DesignPoint]
    argmax_values: Dict[float, float]


class GroupedMetricReducer(SweepReducer):
    """Streaming per-depth (or any parameter) metric distributions.

    Keeps, per parameter level, the metric values in sweep order — the
    exact inputs the depth study's boxplot statistics and exceedance
    fractions need — plus the running per-level argmax.  Each level's
    values fill one array sized by :meth:`start` from the point set's
    level counts, so a sweep leaves no per-block chunks behind; no
    design points or design matrices are retained.
    """

    def __init__(self, parameter: str = "depth", metric: str = "efficiency"):
        self.parameter = parameter
        self.metric = metric
        self.columns = (parameter,)
        self._values: Dict[float, np.ndarray] = {}
        self._filled: Dict[float, int] = {}
        self._best_value: Dict[float, float] = {}
        self._best_index: Dict[float, int] = {}

    @property
    def cache_key(self) -> tuple:
        return ("grouped", self.parameter, self.metric)

    def start(self, points: PointSet) -> None:
        j = points.space.names.index(self.parameter)
        levels = points.level_matrix()[:, j]
        counts = {
            float(value): np.count_nonzero(levels == level)
            for level, value in enumerate(points.space.parameters[j].values)
        }
        self._values = {
            value: np.empty(count) for value, count in counts.items() if count
        }
        self._filled = dict.fromkeys(self._values, 0)

    def update(self, block: SweepBlock) -> None:
        if not len(block):
            return
        levels = block.raw[self.parameter]
        values = block.metric(self.metric)
        for level in np.unique(levels):
            level = float(level)
            mask = levels == level
            chunk = values[mask]
            filled = self._filled[level]
            self._values[level][filled:filled + chunk.size] = chunk
            self._filled[level] = filled + chunk.size
            local_best = int(chunk.argmax())
            best = float(chunk[local_best])
            # Strictly-greater keeps the first occurrence across blocks,
            # matching argmax over the concatenated whole.
            if level not in self._best_value or best > self._best_value[level]:
                self._best_value[level] = best
                self._best_index[level] = int(
                    block.indices[np.flatnonzero(mask)[local_best]]
                )

    def finalize(self, points: PointSet) -> GroupedResult:
        levels = sorted(self._values)
        return GroupedResult(
            parameter=self.parameter,
            metric=self.metric,
            values={level: self._values[level] for level in levels},
            argmax_indices={
                level: self._best_index[level] for level in levels
            },
            argmax_points={
                level: points[self._best_index[level]]
                for level in levels
            },
            argmax_values={
                level: self._best_value[level] for level in levels
            },
        )


@dataclass
class CollectedColumns:
    """Finalized full-length metric vectors and raw parameter columns."""

    metrics: Dict[str, np.ndarray]
    columns: Dict[str, np.ndarray]

    def metric(self, name: str) -> np.ndarray:
        return self.metrics[name]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


class CollectReducer(SweepReducer):
    """Accumulates whole-sweep metric vectors (and raw columns).

    The escape hatch for analyses that genuinely need every prediction
    (Figure 2's characterization scatter, the suite-average percentile
    cut of Figure 5b): floats only — a paper-scale sweep costs a few MB
    — while points and design matrices still never accumulate.  Each
    vector is one array sized by :meth:`start` and filled block by
    block in place.
    """

    def __init__(
        self,
        metrics: Sequence[str] = ("bips", "watts"),
        columns: Sequence[str] = (),
    ):
        self.metric_names = tuple(metrics)
        self.columns = tuple(columns)
        self._metrics: Dict[str, np.ndarray] = {}
        self._columns: Dict[str, np.ndarray] = {}

    @property
    def cache_key(self) -> tuple:
        return ("collect", self.metric_names, self.columns)

    def start(self, points: PointSet) -> None:
        n = len(points)
        self._metrics = {name: np.empty(n) for name in self.metric_names}
        self._columns = {name: np.empty(n) for name in self.columns}

    def update(self, block: SweepBlock) -> None:
        if not len(block):
            return
        where = slice(int(block.indices[0]), int(block.indices[-1]) + 1)
        for name, whole in self._metrics.items():
            whole[where] = block.metric(name)
        for name, whole in self._columns.items():
            whole[where] = block.raw[name]

    def finalize(self, points: PointSet) -> CollectedColumns:
        return CollectedColumns(metrics=self._metrics, columns=self._columns)


# -- the engine ----------------------------------------------------------------


@dataclass
class SweepReport:
    """Outcome of one sweep: reducer results plus throughput accounting."""

    benchmarks: Tuple[str, ...]   #: one per predictor, in sweep order
    n_points: int                 #: designs swept per predictor
    block_size: int
    elapsed_seconds: float
    #: One list per predictor, holding each of its reducers' results.
    results: List[List[object]]
    #: The :mod:`repro.obs` metrics this sweep recorded (points, blocks,
    #: per-block predict and reduce times).
    metrics: Optional[dict] = None

    @property
    def points_per_second(self) -> float:
        """Predicted designs per second, summed over the predictors."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return len(self.benchmarks) * self.n_points / self.elapsed_seconds


def _block_ranges(total: int, block_size: int) -> List[Tuple[int, int]]:
    return [
        (start, min(start + block_size, total))
        for start in range(0, total, block_size)
    ]


def _layout_groups(
    predictors: Sequence[BlockPredictor], space: DesignSpace
) -> Dict[DesignLayout, List[Tuple[int, str, _LevelDesignCache]]]:
    """The (predictor position, metric, evaluator) uses of each distinct layout.

    Layouts group by value, so models whose tables are bitwise equal
    share one design matrix per block however they were built.
    """
    groups: Dict[DesignLayout, List[Tuple[int, str, _LevelDesignCache]]] = {}
    for position, predictor in enumerate(predictors):
        bips, watts = predictor._level_caches(space)
        groups.setdefault(bips.layout, []).append((position, "bips", bips))
        groups.setdefault(watts.layout, []).append((position, "watts", watts))
    return groups


def _predict_blocks(
    predictors: Sequence[BlockPredictor],
    groups: Dict[DesignLayout, List[Tuple[int, str, _LevelDesignCache]]],
    levels: np.ndarray,
    indices: np.ndarray,
    raw: Dict[str, np.ndarray],
) -> List[SweepBlock]:
    """Each predictor's :class:`SweepBlock` for one block of level indices.

    Fills one design matrix per distinct layout and evaluates every model
    that uses it before the next fill, so one matrix is alive at a time.
    Each predicted array is checked once (:func:`block_metrics`).
    """
    predicted: List[Dict[str, np.ndarray]] = [{} for _ in predictors]
    for layout, uses in groups.items():
        X = layout.design(levels)
        for position, metric, cache in uses:
            predicted[position][metric] = cache.evaluate(X)
    blocks = []
    for predictor, out in zip(predictors, predicted):
        delay, efficiency = block_metrics(
            out["bips"], out["watts"], predictor.ref_instructions
        )
        blocks.append(
            SweepBlock(
                benchmark=predictor.benchmark,
                indices=indices,
                bips=out["bips"],
                watts=out["watts"],
                delay=delay,
                efficiency=efficiency,
                raw=raw,
            )
        )
    return blocks


def run_sweep(
    predictors: Sequence[BlockPredictor],
    points: PointSet,
    reducers: Sequence[Sequence[SweepReducer]],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SweepReport:
    """Sweep ``points`` through every predictor, folding into its reducers.

    ``reducers`` holds one reducer list per predictor; a single benchmark
    is a one-element sequence of each.  Blocks are evaluated in sweep
    order.  Each block slices its level indices from the point set's
    memoized :meth:`PointSet.level_matrix`, gathers its raw columns
    once, fills one design matrix per distinct :class:`DesignLayout`
    among the predictors' models, evaluates every model on its layout's
    matrix, and passes each predictor's own :class:`SweepBlock` to that
    predictor's reducers; every reducer is started once and sees every
    block exactly once.  Reducers index their blocks by position in
    ``points``.
    """
    predictors = list(predictors)
    reducers = [list(group) for group in reducers]
    if len(reducers) != len(predictors):
        raise SweepError(
            f"{len(predictors)} predictors need as many reducer lists, "
            f"got {len(reducers)}"
        )
    if block_size < 1:
        raise SweepError(f"block_size must be positive, got {block_size}")
    space = points.space
    raw_tables = raw_level_tables(space)
    columns = {
        name: (space.names.index(name), raw_tables[space.names.index(name)])
        for group in reducers
        for r in group
        for name in r.columns
    }
    groups = _layout_groups(predictors, space)
    total = len(points)
    all_levels = points.level_matrix()
    for group in reducers:
        for reducer in group:
            reducer.start(points)
    tracer = get_tracer()
    registry = get_registry()
    mark = registry.snapshot()

    with tracer.span(
        "sweep.run",
        benchmarks=[predictor.benchmark for predictor in predictors],
        layouts=len(groups),
        n_points=total,
        block_size=block_size,
    ) as root:
        for start, stop in _block_ranges(total, block_size):
            with tracer.span(
                "sweep.predict_block", start=start, size=stop - start
            ) as predict_span:
                levels = all_levels[start:stop]
                raw = {
                    name: table[levels[:, j]]
                    for name, (j, table) in columns.items()
                }
                blocks = _predict_blocks(
                    predictors,
                    groups,
                    levels,
                    np.arange(start, stop, dtype=np.int64),
                    raw,
                )
            with tracer.span(
                "sweep.reduce_block", start=start, size=stop - start
            ) as reduce_span:
                for block, group in zip(blocks, reducers):
                    for reducer in group:
                        reducer.update(block)
            registry.increment("sweep.points", (stop - start) * len(predictors))
            registry.increment("sweep.blocks")
            registry.observe(
                "sweep.predict_block.seconds", predict_span.wall_s
            )
            registry.observe(
                "sweep.reduce_block.seconds", reduce_span.wall_s
            )

    return SweepReport(
        benchmarks=tuple(predictor.benchmark for predictor in predictors),
        n_points=total,
        block_size=block_size,
        elapsed_seconds=root.wall_s,
        results=[
            [reducer.finalize(points) for reducer in group]
            for group in reducers
        ],
        metrics=registry.delta(mark),
    )


def predict_source(
    predictor: BlockPredictor, points: PointSet
) -> Tuple[np.ndarray, np.ndarray]:
    """Full (bips, watts) vectors for a point set, computed blockwise."""
    report = run_sweep(
        [predictor], points, [[CollectReducer(metrics=("bips", "watts"))]]
    )
    collected = report.results[0][0]
    return collected.metric("bips"), collected.metric("watts")
