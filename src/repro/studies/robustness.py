"""Conclusion robustness under model uncertainty.

The paper promises, for each study, "an assessment of predictive error and
sensitivity of observed trends to such error."  This module quantifies
that sensitivity directly: the training sample is bootstrap-resampled, the
performance and power models refit, and each study's headline conclusion
recomputed per replicate.  Stable conclusions (the same optimal depth, the
same Table 2 optima region) survive resampling; fragile ones scatter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..designspace import DesignPoint
from ..harness.sweep import BlockPredictor, TopKReducer, run_sweep
from ..regression import FittedModel, fit_models, performance_spec, power_spec
from ..workloads import get_profile
from .common import StudyContext


@dataclass
class BootstrapModels:
    """One replicate's refit model pair."""

    bips: FittedModel
    watts: FittedModel


def bootstrap_models(
    ctx: StudyContext,
    benchmark: str,
    replicates: int = 20,
    seed: int = 0,
) -> List[BootstrapModels]:
    """Refit the paper's models on bootstrap resamples of the training set."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    dataset = ctx.campaign.dataset(benchmark, "train")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(replicates):
        rows = rng.integers(0, n, size=n)
        columns = dataset.subset(rows.tolist()).columns()
        bips, watts = fit_models([performance_spec(), power_spec()], columns)
        models.append(BootstrapModels(bips=bips, watts=watts))
    return models


@dataclass
class OptimumStability:
    """Bootstrap distribution of one benchmark's bips^3/w optimum."""

    benchmark: str
    replicates: int
    nominal_point: DesignPoint
    modal_point: DesignPoint
    modal_fraction: float                  #: replicates agreeing on the mode
    parameter_agreement: Dict[str, float]  #: per-parameter match vs nominal
    efficiency_cv: float                   #: coefficient of variation of max eff.


def optimum_stability(
    ctx: StudyContext,
    benchmark: str,
    replicates: int = 20,
    seed: int = 0,
) -> OptimumStability:
    """How stable is the predicted bips^3/w-optimal design under resampling?

    Every replicate's models sweep the exploration set in one pass of the
    sweep engine, each reduced to its efficiency argmax; no design matrix
    of the whole set is built.
    """
    table = ctx.predict_exploration(benchmark)
    nominal = table.points[int(table.efficiency.argmax())]

    points = ctx.exploration_points()
    ref_instructions = get_profile(benchmark).ref_instructions
    predictors = [
        BlockPredictor(
            benchmark=benchmark,
            bips_model=models.bips,
            watts_model=models.watts,
            ref_instructions=ref_instructions,
        )
        for models in bootstrap_models(ctx, benchmark, replicates, seed)
    ]
    report = run_sweep(
        predictors, points, [[TopKReducer("efficiency", 1)] for _ in predictors]
    )
    winners = [optimum.points[0] for (optimum,) in report.results]
    efficiencies = [float(optimum.efficiency[0]) for (optimum,) in report.results]

    counts = Counter(winners)
    modal_point, modal_count = counts.most_common(1)[0]
    agreement = {
        name: float(
            np.mean([winner[name] == nominal[name] for winner in winners])
        )
        for name in nominal.names
    }
    efficiencies_array = np.array(efficiencies)
    cv = float(efficiencies_array.std() / efficiencies_array.mean())
    return OptimumStability(
        benchmark=benchmark,
        replicates=replicates,
        nominal_point=nominal,
        modal_point=modal_point,
        modal_fraction=modal_count / replicates,
        parameter_agreement=agreement,
        efficiency_cv=cv,
    )


@dataclass
class DepthStability:
    """Bootstrap distribution of the constrained analysis's optimal depth."""

    replicates: int
    nominal_depth: float
    depth_histogram: Dict[float, float]     #: depth -> fraction of replicates
    within_one_level: float                 #: fraction within ±1 grid level


def depth_optimum_stability(
    ctx: StudyContext,
    replicates: int = 20,
    seed: int = 0,
    benchmarks: Optional[List[str]] = None,
) -> DepthStability:
    """Stability of the suite-average original-analysis depth optimum."""
    from .depth import depth_levels

    benchmarks = list(benchmarks or ctx.benchmarks)
    depths = list(depth_levels(ctx))
    baseline = ctx.baseline
    sweep_points = [baseline.replace(depth=d) for d in depths]

    from ..designspace import DesignEncoder

    encoder = DesignEncoder(ctx.exploration_space)
    matrix = encoder.encode(sweep_points)
    columns = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}

    # nominal optimum from the primary models
    def suite_relative(model_table: Dict[str, Dict[str, np.ndarray]]) -> np.ndarray:
        stack = []
        for benchmark in benchmarks:
            bips = model_table[benchmark]["bips"]
            watts = model_table[benchmark]["watts"]
            efficiency = bips**3 / watts
            stack.append(efficiency / efficiency.max())
        return np.mean(np.vstack(stack), axis=0)

    nominal_models = {
        b: {
            "bips": ctx.model(b, "bips").predict(columns),
            "watts": ctx.model(b, "watts").predict(columns),
        }
        for b in benchmarks
    }
    nominal_depth = depths[int(suite_relative(nominal_models).argmax())]

    rng = np.random.default_rng(seed)
    histogram: Counter = Counter()
    for r in range(replicates):
        replicate_table = {}
        for benchmark in benchmarks:
            models = bootstrap_models(
                ctx, benchmark, replicates=1, seed=int(rng.integers(0, 2**31 - 1))
            )[0]
            replicate_table[benchmark] = {
                "bips": models.bips.predict(columns),
                "watts": models.watts.predict(columns),
            }
        winner = depths[int(suite_relative(replicate_table).argmax())]
        histogram[winner] += 1

    index = depths.index(nominal_depth)
    neighbours = {
        depths[j] for j in (index - 1, index, index + 1) if 0 <= j < len(depths)
    }
    within = sum(histogram[d] for d in neighbours) / replicates
    return DepthStability(
        replicates=replicates,
        nominal_depth=nominal_depth,
        depth_histogram={d: histogram[d] / replicates for d in depths},
        within_one_level=within,
    )
