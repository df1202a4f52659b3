"""Shared study infrastructure.

A :class:`StudyContext` owns everything the three design-space studies
need: the sampling and exploration spaces, the (cached) simulation
campaign, the fitted per-benchmark regression models, the exploration
point sets, and prediction/simulation helpers.  Every study function takes
a context, so one campaign and one model fit serve all figures.

Prediction runs on the blockwise sweep engine
(:mod:`repro.harness.sweep`): arbitrary point lists are encoded and
evaluated in vectorized batches (:meth:`StudyContext.predict_points`),
while the exploration and per-depth sets can additionally be *swept* —
folded into streaming reducers block by block
(:meth:`StudyContext.sweep_exploration`,
:meth:`StudyContext.sweep_per_depth`) — so full-space studies never hold
all predictions, points, or design matrices at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..designspace import (
    DesignPoint,
    DesignSpace,
    exploration_space,
    sample_stratified,
    sample_uar,
    sampling_space,
)
from ..harness import Campaign, cached_campaign, fit_campaign_models, get_scale
from ..harness.scale import ScalePreset
from ..harness.sweep import (
    BlockPredictor,
    PointSweepSource,
    SpaceSweepSource,
    SweepReducer,
    SweepSource,
    predict_source,
    run_sweep,
)
from ..metrics import bips3_per_watt, delay_seconds
from ..regression import FittedModel
from ..simulator import Simulator, baseline_point
from ..simulator.results import SimulationResult
from ..workloads import BENCHMARK_NAMES, Trace, get_profile


@dataclass
class PredictionTable:
    """Regression predictions over a set of design points."""

    benchmark: str
    points: List[DesignPoint]
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

    def subset(self, indices: Sequence[int]) -> "PredictionTable":
        indices = list(indices)
        return PredictionTable(
            benchmark=self.benchmark,
            points=[self.points[i] for i in indices],
            bips=self.bips[indices],
            watts=self.watts[indices],
            ref_instructions=self.ref_instructions,
        )


class StudyContext:
    """One campaign + one model fit, shared by all studies."""

    def __init__(
        self,
        scale: Optional[ScalePreset] = None,
        simulator: Optional[Simulator] = None,
        benchmarks: Optional[Sequence[str]] = None,
        refresh: bool = False,
        workers: int = 1,
        resilience=None,
        batch_size: Optional[int] = None,
    ):
        self.scale = scale or get_scale()
        self.simulator = simulator or Simulator()
        self.benchmarks = tuple(benchmarks or BENCHMARK_NAMES)
        self.sampling_space: DesignSpace = sampling_space()
        self.exploration_space: DesignSpace = exploration_space()
        self.workers = workers
        #: Optional :class:`repro.harness.ResilienceConfig` applied to the
        #: campaign phase (retries, journaled checkpoint/resume).
        self.resilience = resilience
        #: Block size for the batched timing kernel (the campaign and
        #: :meth:`simulate_many`); ``None`` batches each call whole.
        #: Tunes speed/memory only — results are bit-identical throughout.
        self.batch_size = batch_size
        self._refresh = refresh
        self._campaign: Optional[Campaign] = None
        self._models: Optional[Dict[str, Dict[str, FittedModel]]] = None
        self._exploration_points: Optional[List[DesignPoint]] = None
        self._stratified_points: Dict[str, List[DesignPoint]] = {}
        self._prediction_tables: Dict[tuple, PredictionTable] = {}
        self._traces: Dict[str, Trace] = {}
        self._sources: Dict[tuple, SweepSource] = {}
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
                resilience=self.resilience,
                batch_size=self.batch_size,
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
        """The benchmark's fitted models bundled for the sweep engine."""
        return BlockPredictor(
            benchmark=benchmark,
            bips_model=self.model(benchmark, "bips"),
            watts_model=self.model(benchmark, "watts"),
            ref_instructions=get_profile(benchmark).ref_instructions,
        )

    # -- point sets ----------------------------------------------------------

    @property
    def baseline(self) -> DesignPoint:
        """Table 3 baseline snapped onto the exploration grid."""
        return baseline_point(self.exploration_space)

    def exploration_points(self) -> List[DesignPoint]:
        """The exploration set: all points, or a UAR subsample at scale."""
        if self._exploration_points is None:
            limit = self.scale.exploration_limit
            space = self.exploration_space
            if limit is None or limit >= len(space):
                self._exploration_points = list(space)
            else:
                self._exploration_points = sample_uar(
                    space, limit, seed=self.scale.seed + 1
                )
        return self._exploration_points

    def per_depth_points(self, parameter: str = "depth") -> List[DesignPoint]:
        """Stratified exploration set: equal designs at every depth level."""
        if parameter not in self._stratified_points:
            space = self.exploration_space
            levels = space.parameter(parameter).cardinality
            per_level = min(
                self.scale.per_depth_designs,
                len(space) // levels,
            )
            self._stratified_points[parameter] = sample_stratified(
                space, parameter, per_level, seed=self.scale.seed + 2
            )
        return self._stratified_points[parameter]

    # -- sweep sources -------------------------------------------------------

    def exploration_source(self) -> SweepSource:
        """Block-addressable exploration set for the sweep engine.

        A full (unsubsampled) exploration sweep enumerates the space by
        mixed-radix index — no point list is ever materialized — while a
        scale-limited sweep wraps the memoized UAR subsample so positions
        match :meth:`exploration_points` (and thus
        :meth:`predict_exploration` row indices) exactly.
        """
        key = ("exploration",)
        if key not in self._sources:
            limit = self.scale.exploration_limit
            space = self.exploration_space
            if limit is None or limit >= len(space):
                self._sources[key] = SpaceSweepSource(space)
            else:
                self._sources[key] = PointSweepSource(
                    space, self.exploration_points()
                )
        return self._sources[key]

    def per_depth_source(self, parameter: str = "depth") -> SweepSource:
        """Block-addressable depth-stratified set for the sweep engine."""
        key = ("per-depth", parameter)
        if key not in self._sources:
            self._sources[key] = PointSweepSource(
                self.exploration_space, self.per_depth_points(parameter)
            )
        return self._sources[key]

    # -- prediction ----------------------------------------------------------

    def predict_points(
        self, benchmark: str, points: Sequence[DesignPoint]
    ) -> PredictionTable:
        """Regression-predicted bips and watts for arbitrary points."""
        points = list(points)
        source = PointSweepSource(self.exploration_space, points)
        bips, watts = predict_source(self.predictor(benchmark), source)
        return PredictionTable(
            benchmark=benchmark,
            points=points,
            bips=bips,
            watts=watts,
            ref_instructions=get_profile(benchmark).ref_instructions,
        )

    def _predict_source_table(
        self, benchmark: str, source: SweepSource, points: List[DesignPoint]
    ) -> PredictionTable:
        bips, watts = predict_source(self.predictor(benchmark), source)
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
            self._prediction_tables[key] = self._predict_source_table(
                benchmark, self.exploration_source(), self.exploration_points()
            )
        return self._prediction_tables[key]

    def predict_per_depth(self, benchmark: str) -> PredictionTable:
        """Predictions over the depth-stratified set (memoized)."""
        key = (benchmark, "per-depth")
        if key not in self._prediction_tables:
            self._prediction_tables[key] = self._predict_source_table(
                benchmark, self.per_depth_source(), self.per_depth_points()
            )
        return self._prediction_tables[key]

    # -- streaming sweeps ------------------------------------------------------

    def _sweep(
        self,
        benchmark: str,
        set_name: str,
        source: SweepSource,
        reducers: Sequence[SweepReducer],
        workers: Optional[int],
        block_size: Optional[int],
    ) -> List[object]:
        """Run reducers over a source, memoizing cacheable results.

        Reducers exposing a ``cache_key`` are computed at most once per
        (benchmark, point set); a single engine pass serves all uncached
        reducers of the call.
        """
        def key_of(reducer: SweepReducer) -> Optional[tuple]:
            if reducer.cache_key is None:
                return None
            return (benchmark, set_name, reducer.cache_key)

        pending = [
            reducer
            for reducer in reducers
            if key_of(reducer) is None
            or key_of(reducer) not in self._sweep_results
        ]
        if pending:
            kwargs = {}
            if block_size is not None:
                kwargs["block_size"] = block_size
            report = run_sweep(
                self.predictor(benchmark),
                source,
                pending,
                workers=workers or 1,
                **kwargs,
            )
            for reducer, result in zip(pending, report.results):
                cache_key = key_of(reducer)
                if cache_key is not None:
                    self._sweep_results[cache_key] = result
                else:
                    self._sweep_results[id(reducer)] = result
        return [
            self._sweep_results.pop(id(reducer))
            if key_of(reducer) is None
            else self._sweep_results[key_of(reducer)]
            for reducer in reducers
        ]

    def sweep_exploration(
        self,
        benchmark: str,
        reducers: Sequence[SweepReducer],
        workers: Optional[int] = None,
        block_size: Optional[int] = None,
    ) -> List[object]:
        """Fold streaming reducers over the exploration set.

        Returns one finalized result per reducer, identical (by reducer
        partition independence) to reducing the monolithic
        :meth:`predict_exploration` table — without building it.
        """
        return self._sweep(
            benchmark,
            "exploration",
            self.exploration_source(),
            reducers,
            workers,
            block_size,
        )

    def sweep_per_depth(
        self,
        benchmark: str,
        reducers: Sequence[SweepReducer],
        parameter: str = "depth",
        workers: Optional[int] = None,
        block_size: Optional[int] = None,
    ) -> List[object]:
        """Fold streaming reducers over the depth-stratified set."""
        return self._sweep(
            benchmark,
            f"per-depth:{parameter}",
            self.per_depth_source(parameter),
            reducers,
            workers,
            block_size,
        )

    # -- simulation -----------------------------------------------------------

    def trace(self, benchmark: str) -> Trace:
        """The benchmark's synthetic trace at this scale (built once).

        Cached per benchmark on the context, so validating N frontier or
        depth designs costs one trace build, not N.
        """
        if benchmark not in self._traces:
            self._traces[benchmark] = self.simulator.trace_for(
                get_profile(benchmark),
                self.scale.trace_length,
                seed=self.scale.seed,
            )
        return self._traces[benchmark]

    def simulate(self, benchmark: str, point: DesignPoint) -> SimulationResult:
        """Ground-truth simulation of one design on one benchmark."""
        return self.simulator.simulate_point(
            self.exploration_space, point, self.trace(benchmark)
        )

    def simulate_many(
        self, benchmark: str, points: Sequence[DesignPoint]
    ) -> List[SimulationResult]:
        """Ground-truth simulation of many designs on one benchmark.

        Goes through the batched timing kernel — one trace replay per
        block of configs instead of one per design — and returns results
        bit-identical to calling :meth:`simulate` per point.  Validation
        phases (frontier, per-depth, cluster heterogeneity) use this.
        """
        return self.simulator.simulate_batch(
            self.exploration_space,
            list(points),
            self.trace(benchmark),
            batch_size=self.batch_size,
        )
