"""Shared study infrastructure.

A :class:`StudyContext` owns everything the three design-space studies
need: the sampling and exploration spaces, the (cached) simulation
campaign, the fitted per-benchmark regression models, the exploration
point sets, and prediction/simulation helpers.  Every study function takes
a context, so one campaign and one model fit serve all figures.

Prediction runs on the blockwise sweep engine
(:mod:`repro.harness.sweep`), which sweeps a
:class:`~repro.designspace.PointSet`.  The exploration and per-depth
sets are point sets from sampling on; arbitrary point lists become one
through :meth:`PointSet.from_points` (:meth:`StudyContext.predict_points`).
Point sets are index arrays, with a :class:`DesignPoint` decoded only
where a study asks for one point.  The exploration and per-depth sets
can also be *swept* — folded into streaming reducers block by block
(:meth:`StudyContext.sweep_exploration`,
:meth:`StudyContext.sweep_per_depth`) — so full-space studies never hold
all predictions, points, or design matrices at once.  A study that
loops over benchmarks sweeps them all in one pass, so the suite shares
each block's decode and design matrix.  Each benchmark's
sweep predictor (:meth:`StudyContext.predictor`) is built once per
context, so its models' level tables are too.

Ground-truth simulations (:meth:`StudyContext.simulate`) are memoized
per (benchmark, :class:`~repro.simulator.MachineConfig`): a design that
one study validates is never simulated again by another, whichever
space named it, and only the misses of a call reach the simulator.  The
memoized :class:`SimulationResult` objects are shared between callers,
so treat them as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..designspace import (
    DesignPoint,
    DesignSpace,
    PointSet,
    exploration_space,
    sample_stratified_indices,
    sample_uar_indices,
    sampling_space,
)
from ..harness import Campaign, cached_campaign, fit_campaign_models, get_scale
from ..harness.scale import ScalePreset
from ..harness.sweep import BlockPredictor, SweepReducer, predict_source, run_sweep
from ..metrics import bips3_per_watt, delay_seconds
from ..regression import FittedModel
from ..simulator import (
    MachineConfig,
    Simulator,
    baseline_point,
    config_from_point,
)
from ..simulator.results import SimulationResult
from ..workloads import BENCHMARK_NAMES, Trace, get_profile


@dataclass
class PredictionTable:
    """Regression predictions over a set of design points."""

    benchmark: str
    points: PointSet
    bips: np.ndarray
    watts: np.ndarray
    ref_instructions: float

    def __post_init__(self) -> None:
        if not (len(self.points) == self.bips.size == self.watts.size):
            raise ValueError("prediction table columns disagree in length")

    @property
    def delay(self) -> np.ndarray:
        return delay_seconds(self.bips, self.ref_instructions)

    @property
    def efficiency(self) -> np.ndarray:
        return bips3_per_watt(self.bips, self.watts)

    def __len__(self) -> int:
        return len(self.points)


class StudyContext:
    """One campaign + one model fit, shared by all studies.

    ``resilience`` is accepted and ignored: ``benchmarks/e2e/workload.py:107``
    passes it until ROADMAP item 8's benchmark change drops the argument.
    """

    def __init__(
        self,
        scale: Optional[ScalePreset] = None,
        simulator: Optional[Simulator] = None,
        benchmarks: Optional[Sequence[str]] = None,
        refresh: bool = False,
        workers: int = 1,
        resilience=None,
    ):
        self.scale = scale or get_scale()
        self.simulator = simulator or Simulator()
        self.benchmarks = tuple(benchmarks or BENCHMARK_NAMES)
        self.sampling_space: DesignSpace = sampling_space()
        self.exploration_space: DesignSpace = exploration_space()
        self.workers = workers
        self._refresh = refresh
        self._campaign: Optional[Campaign] = None
        self._models: Optional[Dict[str, Dict[str, FittedModel]]] = None
        self._predictors: Dict[str, BlockPredictor] = {}
        self._exploration_points: Optional[PointSet] = None
        self._stratified_points: Dict[str, PointSet] = {}
        self._prediction_tables: Dict[tuple, PredictionTable] = {}
        self._simulations: Dict[tuple, SimulationResult] = {}
        #: Table 2 optima, memoized by ``heterogeneity.benchmark_optima``.
        self._heterogeneity_cache: Dict[tuple, object] = {}
        self._sweep_results: Dict[tuple, object] = {}

    # -- campaign & models -------------------------------------------------

    @property
    def campaign(self) -> Campaign:
        if self._campaign is None:
            self._campaign = cached_campaign(
                simulator=self.simulator,
                scale=self.scale,
                space=self.sampling_space,
                benchmarks=self.benchmarks,
                refresh=self._refresh,
                workers=self.workers,
            )
        return self._campaign

    @property
    def models(self) -> Dict[str, Dict[str, FittedModel]]:
        if self._models is None:
            self._models = fit_campaign_models(self.campaign)
        return self._models

    def model(self, benchmark: str, metric: str) -> FittedModel:
        """Fitted model for one benchmark and metric ("bips" or "watts")."""
        return self.models[benchmark][metric]

    def predictor(self, benchmark: str) -> BlockPredictor:
        """The benchmark's fitted models bundled for the sweep engine.

        Memoized per benchmark: the models are fixed for the context, so
        every sweep reuses one predictor and its level tables.
        """
        if benchmark not in self._predictors:
            self._predictors[benchmark] = BlockPredictor(
                benchmark=benchmark,
                bips_model=self.model(benchmark, "bips"),
                watts_model=self.model(benchmark, "watts"),
                ref_instructions=get_profile(benchmark).ref_instructions,
            )
        return self._predictors[benchmark]

    # -- point sets ----------------------------------------------------------

    @property
    def baseline(self) -> DesignPoint:
        """Table 3 baseline snapped onto the exploration grid."""
        return baseline_point(self.exploration_space)

    def exploration_points(self) -> PointSet:
        """The exploration set: all points, or a UAR subsample at scale."""
        if self._exploration_points is None:
            limit = self.scale.exploration_limit
            space = self.exploration_space
            if limit is None or limit >= len(space):
                indices = np.arange(len(space), dtype=np.int64)
            else:
                indices = sample_uar_indices(space, limit, seed=self.scale.seed + 1)
            self._exploration_points = PointSet(space, indices)
        return self._exploration_points

    def per_depth_points(self, parameter: str = "depth") -> PointSet:
        """Stratified exploration set: equal designs at every depth level."""
        if parameter not in self._stratified_points:
            space = self.exploration_space
            levels = space.parameter(parameter).cardinality
            per_level = min(
                self.scale.per_depth_designs,
                len(space) // levels,
            )
            self._stratified_points[parameter] = PointSet(
                space,
                sample_stratified_indices(
                    space, parameter, per_level, seed=self.scale.seed + 2
                ),
            )
        return self._stratified_points[parameter]

    # -- prediction ----------------------------------------------------------

    def predict_points(
        self, benchmark: str, points: Sequence[DesignPoint]
    ) -> PredictionTable:
        """Regression-predicted bips and watts for arbitrary points.

        The points must lie on the exploration grid; an off-grid point
        raises :class:`~repro.designspace.parameters.ParameterError`.
        """
        return self._predict_table(
            benchmark, PointSet.from_points(self.exploration_space, points)
        )

    def _predict_table(self, benchmark: str, points: PointSet) -> PredictionTable:
        bips, watts = predict_source(self.predictor(benchmark), points)
        return PredictionTable(
            benchmark=benchmark,
            points=points,
            bips=bips,
            watts=watts,
            ref_instructions=get_profile(benchmark).ref_instructions,
        )

    def predict_exploration(self, benchmark: str) -> PredictionTable:
        """Predictions over the exploration set (memoized per benchmark).

        Materializes a whole-set table — Figure 2's characterization
        needs one.  Studies that only need reductions (frontier, optima,
        per-depth histograms) should prefer :meth:`sweep_exploration`,
        which streams and never builds the table.
        """
        key = (benchmark, "exploration")
        if key not in self._prediction_tables:
            self._prediction_tables[key] = self._predict_table(
                benchmark, self.exploration_points()
            )
        return self._prediction_tables[key]

    # -- streaming sweeps ------------------------------------------------------

    def _sweep(
        self,
        benchmarks: Sequence[str],
        set_name: str,
        points: PointSet,
        reducers: Callable[[], Sequence[SweepReducer]],
    ) -> Dict[str, List[object]]:
        """Run fresh reducers per benchmark over a point set, memoized.

        ``reducers`` builds one benchmark's reducer list.  Each result is
        computed at most once per (benchmark, point set, ``cache_key``);
        one engine pass serves the uncached reducers of every benchmark
        in the call, so the benchmarks share each block's decode and
        design matrices.
        """
        keys: Dict[str, List[tuple]] = {}
        pending: Dict[str, Dict[tuple, SweepReducer]] = {}
        for benchmark in dict.fromkeys(benchmarks):
            fresh = list(reducers())
            keys[benchmark] = [
                (benchmark, set_name, reducer.cache_key) for reducer in fresh
            ]
            missing = {
                key: reducer
                for key, reducer in zip(keys[benchmark], fresh)
                if key not in self._sweep_results
            }
            if missing:
                pending[benchmark] = missing
        if pending:
            report = run_sweep(
                [self.predictor(benchmark) for benchmark in pending],
                points,
                [list(missing.values()) for missing in pending.values()],
            )
            for missing, results in zip(pending.values(), report.results):
                self._sweep_results.update(zip(missing, results))
        return {
            benchmark: [self._sweep_results[key] for key in benchmark_keys]
            for benchmark, benchmark_keys in keys.items()
        }

    def sweep_exploration(
        self,
        benchmarks: Sequence[str],
        reducers: Callable[[], Sequence[SweepReducer]],
    ) -> Dict[str, List[object]]:
        """Fold streaming reducers over the exploration set.

        ``reducers`` builds a fresh reducer list for one benchmark.
        Returns, per benchmark, one finalized result per reducer,
        identical (by reducer partition independence) to reducing the
        monolithic :meth:`predict_exploration` table — without building
        it.  All benchmarks of the call sweep in one pass.
        """
        return self._sweep(
            benchmarks, "exploration", self.exploration_points(), reducers
        )

    def sweep_per_depth(
        self,
        benchmarks: Sequence[str],
        reducers: Callable[[], Sequence[SweepReducer]],
        parameter: str = "depth",
    ) -> Dict[str, List[object]]:
        """Fold streaming reducers over the depth-stratified set."""
        return self._sweep(
            benchmarks,
            f"per-depth:{parameter}",
            self.per_depth_points(parameter),
            reducers,
        )

    # -- simulation -----------------------------------------------------------

    def trace(self, benchmark: str) -> Trace:
        """The benchmark's synthetic trace at this scale.

        The simulator's trace cache memoizes it per (benchmark, length,
        seed), so validating N frontier or depth designs costs one trace
        build, not N.
        """
        return self.simulator.trace_for(
            get_profile(benchmark), self.scale.trace_length, seed=self.scale.seed
        )

    def simulate(
        self,
        benchmark: str,
        designs: Sequence[Union[DesignPoint, MachineConfig]],
    ) -> List[SimulationResult]:
        """Ground-truth simulation of designs on one benchmark's trace.

        A design is a :class:`MachineConfig` or a point of the
        exploration space, which resolves to its config.  Results are
        memoized per (benchmark, config), so a point and its config share
        one entry, and are shared between callers: treat them as
        read-only.  The distinct misses of a call reach the simulator in
        one call, which picks the kernel by block size; results come back
        in input order with duplicates repeated.
        """
        keys = [
            (
                benchmark,
                design
                if isinstance(design, MachineConfig)
                else config_from_point(self.exploration_space, design),
            )
            for design in designs
        ]
        misses = list(
            dict.fromkeys(key for key in keys if key not in self._simulations)
        )
        if misses:
            results = self.simulator.simulate(
                self.trace(benchmark), [config for _, config in misses]
            )
            self._simulations.update(zip(misses, results))
        return [self._simulations[key] for key in keys]
