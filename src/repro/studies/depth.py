"""Study 2: Pipeline depth analysis (Section 5).

Two analyses over depths 12..30 FO4:

- **original** — the constrained prior-work protocol: every non-depth
  parameter pinned at the Table 3 baseline, efficiency predicted per depth
  (the line plot of Figure 5a);
- **enhanced** — all parameters vary simultaneously: the per-depth
  efficiency *distributions* (boxplots of Figure 5a), their maxima (the
  bound architectures), the cache-size composition of the top designs
  (Figure 5b), and simulation validation (Figures 6 and 7).

Efficiency is always reported relative to the original analysis's
bips^3/w optimum, per benchmark, then averaged over the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..designspace import DesignPoint
from ..harness.sweep import CollectReducer, GroupedMetricReducer, GroupedResult
from ..regression.validation import BoxplotStats, boxplot_stats
from .common import StudyContext

#: The exploration depths (12..30 FO4).
def depth_levels(ctx: StudyContext) -> Sequence[float]:
    return ctx.exploration_space.parameter("depth").values


@dataclass
class OriginalAnalysis:
    """The constrained sweep for one benchmark."""

    benchmark: str
    depths: List[float]
    points: List[DesignPoint]
    efficiency: np.ndarray           # absolute bips^3/w per depth
    bips: np.ndarray
    watts: np.ndarray

    @property
    def optimal_efficiency(self) -> float:
        return float(self.efficiency.max())

    def relative(self) -> np.ndarray:
        """Efficiency relative to this sweep's own optimum."""
        return self.efficiency / self.optimal_efficiency


def original_analysis(ctx: StudyContext, benchmark: str) -> OriginalAnalysis:
    """Predict the baseline-constrained depth sweep for one benchmark."""
    baseline = ctx.baseline
    depths = list(depth_levels(ctx))
    points = [baseline.replace(depth=d) for d in depths]
    table = ctx.predict_points(benchmark, points)
    return OriginalAnalysis(
        benchmark=benchmark,
        depths=depths,
        points=points,
        efficiency=table.efficiency,
        bips=table.bips,
        watts=table.watts,
    )


@dataclass
class EnhancedAnalysis:
    """Per-depth efficiency distributions for one benchmark.

    All efficiencies are normalized to the *original* analysis's optimum,
    matching Figure 5a's axis.
    """

    benchmark: str
    depths: List[float]
    distributions: Dict[float, BoxplotStats]
    bound_points: Dict[float, DesignPoint]    # per-depth efficiency argmax
    bound_efficiency: Dict[float, float]      # relative to original optimum
    exceed_baseline_fraction: Dict[float, float]
    original: OriginalAnalysis


def _per_depth_efficiency(
    ctx: StudyContext, benchmarks: Sequence[str]
) -> Dict[str, GroupedResult]:
    """The streaming per-depth efficiency reductions (memoized on the ctx)."""
    results = ctx.sweep_per_depth(
        benchmarks,
        lambda: [GroupedMetricReducer(parameter="depth", metric="efficiency")],
    )
    return {benchmark: result for benchmark, (result,) in results.items()}


def enhanced_analysis(ctx: StudyContext, benchmark: str) -> EnhancedAnalysis:
    """Per-depth distributions over the full design space for one benchmark.

    Runs on the sweep engine's grouped reducer: the stratified set is
    predicted blockwise and only per-depth efficiency vectors (floats)
    plus each depth's running argmax are retained — no whole-set
    prediction table is materialized.
    """
    original = original_analysis(ctx, benchmark)
    reference = original.optimal_efficiency
    grouped = _per_depth_efficiency(ctx, [benchmark])[benchmark]

    distributions: Dict[float, BoxplotStats] = {}
    bound_points: Dict[float, DesignPoint] = {}
    bound_efficiency: Dict[float, float] = {}
    exceed: Dict[float, float] = {}
    original_relative = dict(zip(original.depths, original.relative()))
    for depth in depth_levels(ctx):
        if float(depth) not in grouped.values:
            continue
        values = grouped.values[float(depth)] / reference
        distributions[depth] = boxplot_stats(values)
        bound_points[depth] = grouped.argmax_points[float(depth)]
        bound_efficiency[depth] = float(
            grouped.argmax_values[float(depth)] / reference
        )
        # The paper's "more efficient than baseline" compares against the
        # original (constrained) analysis at the *same* depth — where the
        # line plot intersects the boxplot.
        exceed[depth] = float((values > original_relative[depth]).mean())
    return EnhancedAnalysis(
        benchmark=benchmark,
        depths=list(distributions),
        distributions=distributions,
        bound_points=bound_points,
        bound_efficiency=bound_efficiency,
        exceed_baseline_fraction=exceed,
        original=original,
    )


@dataclass
class SuiteDepthSummary:
    """Suite-average Figure 5a data."""

    depths: List[float]
    original_relative: np.ndarray             # line plot (mean across suite)
    distributions: Dict[float, BoxplotStats]  # pooled enhanced distributions
    bound_relative: Dict[float, float]        # mean bound efficiency per depth
    exceed_baseline_fraction: Dict[float, float]
    per_benchmark: Dict[str, EnhancedAnalysis] = field(default_factory=dict)


def suite_depth_summary(ctx: StudyContext) -> SuiteDepthSummary:
    """Average the original and enhanced analyses over the suite."""
    # One suite pass; each enhanced analysis then reads the memo.
    grouped = _per_depth_efficiency(ctx, ctx.benchmarks)
    analyses = {b: enhanced_analysis(ctx, b) for b in ctx.benchmarks}
    depths = list(depth_levels(ctx))

    original_matrix = np.vstack(
        [analyses[b].original.relative() for b in ctx.benchmarks]
    )
    original_relative = original_matrix.mean(axis=0)

    pooled: Dict[float, BoxplotStats] = {}
    bound_relative: Dict[float, float] = {}
    exceed: Dict[float, float] = {}
    original_by_depth = dict(zip(depths, original_relative))
    for depth in depths:
        per_bench_values = []
        for b in ctx.benchmarks:
            analysis = analyses[b]
            reference = analysis.original.optimal_efficiency
            # Per-level chunks arrive in sweep order, so the stratified
            # designs align element-wise across benchmarks.
            per_bench_values.append(grouped[b].values[float(depth)] / reference)
        stacked = np.mean(np.vstack(per_bench_values), axis=0)
        pooled[depth] = boxplot_stats(stacked)
        bound_relative[depth] = float(stacked.max())
        exceed[depth] = float((stacked > original_by_depth[depth]).mean())
    return SuiteDepthSummary(
        depths=depths,
        original_relative=original_relative,
        distributions=pooled,
        bound_relative=bound_relative,
        exceed_baseline_fraction=exceed,
        per_benchmark=analyses,
    )


def top_percentile_cache_distribution(
    ctx: StudyContext,
) -> Dict[float, Dict[float, float]]:
    """Figure 5b: d-L1 size shares among each depth's top designs.

    For every depth, designs at or above the 95th percentile of the
    suite-average efficiency distribution are selected and the d-L1 size
    histogram (fractions) reported.
    """
    # Suite-average efficiency per stratified design, normalized per
    # benchmark by the original optimum (axis does not matter for ranks).
    # The sweep engine collects only the efficiency vector and the two
    # raw parameter columns the histogram needs.
    swept = ctx.sweep_per_depth(
        ctx.benchmarks,
        lambda: [
            CollectReducer(metrics=("efficiency",), columns=("depth", "dl1_kb"))
        ],
    )
    collected = {b: results[0] for b, results in swept.items()}
    first = collected[ctx.benchmarks[0]]
    depths = first.column("depth")
    dl1 = first.column("dl1_kb")
    normalized = []
    for b in ctx.benchmarks:
        efficiency = collected[b].metric("efficiency")
        reference = original_analysis(ctx, b).optimal_efficiency
        normalized.append(efficiency / reference)
    average = np.mean(np.vstack(normalized), axis=0)

    sizes = ctx.exploration_space.parameter("dl1_kb").values
    result: Dict[float, Dict[float, float]] = {}
    for depth in depth_levels(ctx):
        mask = depths == depth
        values = average[mask]
        if values.size == 0:
            continue
        cut = np.percentile(values, 95.0)
        top = mask & (average >= cut)
        total = int(top.sum())
        result[depth] = {
            float(size): float((dl1[top] == size).sum()) / total if total else 0.0
            for size in sizes
        }
    return result


@dataclass
class DepthValidation:
    """Figures 6 and 7: predicted vs simulated, both analyses."""

    depths: List[float]
    predicted_original: np.ndarray   # suite-mean relative efficiency
    simulated_original: np.ndarray
    predicted_enhanced: np.ndarray   # bound architectures per depth
    simulated_enhanced: np.ndarray
    predicted_bips: Dict[str, np.ndarray]   # analysis -> per-depth suite mean
    simulated_bips: Dict[str, np.ndarray]
    predicted_watts: Dict[str, np.ndarray]
    simulated_watts: Dict[str, np.ndarray]


def validate_depth_study(
    ctx: StudyContext, benchmarks: Optional[Sequence[str]] = None
) -> DepthValidation:
    """Simulate the original sweep and each depth's bound architecture.

    Per benchmark and depth we simulate (a) the baseline-constrained
    design and (b) the enhanced analysis's bound architecture, producing
    Figure 6 (efficiency) and Figure 7 (bips and watts, decomposed).
    """
    benchmarks = tuple(benchmarks or ctx.benchmarks)
    depths = list(depth_levels(ctx))

    pred_orig, sim_orig = [], []
    pred_enh, sim_enh = [], []
    pred_bips = {"original": [], "enhanced": []}
    sim_bips = {"original": [], "enhanced": []}
    pred_watts = {"original": [], "enhanced": []}
    sim_watts = {"original": [], "enhanced": []}

    per_bench = {}
    for benchmark in benchmarks:
        analysis = enhanced_analysis(ctx, benchmark)
        original = analysis.original
        reference_pred = original.optimal_efficiency

        # The original line and the bound architectures share one kernel
        # call per benchmark.
        bound_points = [analysis.bound_points[d] for d in depths]
        results = ctx.simulate(benchmark, original.points + bound_points)
        original_results = results[: len(original.points)]
        bound_results = results[len(original.points):]
        sim_eff_orig = np.array(
            [r.bips3_per_watt for r in original_results]
        )
        reference_sim = float(sim_eff_orig.max())

        bound_pred = ctx.predict_points(benchmark, bound_points)

        per_bench[benchmark] = {
            "pred_orig": original.efficiency / reference_pred,
            "sim_orig": sim_eff_orig / reference_sim,
            "pred_enh": bound_pred.efficiency / reference_pred,
            "sim_enh": np.array([r.bips3_per_watt for r in bound_results])
            / reference_sim,
            "pred_bips_orig": original.bips,
            "sim_bips_orig": np.array([r.bips for r in original_results]),
            "pred_watts_orig": original.watts,
            "sim_watts_orig": np.array([r.watts for r in original_results]),
            "pred_bips_enh": bound_pred.bips,
            "sim_bips_enh": np.array([r.bips for r in bound_results]),
            "pred_watts_enh": bound_pred.watts,
            "sim_watts_enh": np.array([r.watts for r in bound_results]),
        }

    def suite_mean(key: str) -> np.ndarray:
        return np.mean(
            np.vstack([per_bench[b][key] for b in benchmarks]), axis=0
        )

    return DepthValidation(
        depths=depths,
        predicted_original=suite_mean("pred_orig"),
        simulated_original=suite_mean("sim_orig"),
        predicted_enhanced=suite_mean("pred_enh"),
        simulated_enhanced=suite_mean("sim_enh"),
        predicted_bips={
            "original": suite_mean("pred_bips_orig"),
            "enhanced": suite_mean("pred_bips_enh"),
        },
        simulated_bips={
            "original": suite_mean("sim_bips_orig"),
            "enhanced": suite_mean("sim_bips_enh"),
        },
        predicted_watts={
            "original": suite_mean("pred_watts_orig"),
            "enhanced": suite_mean("pred_watts_enh"),
        },
        simulated_watts={
            "original": suite_mean("sim_watts_orig"),
            "enhanced": suite_mean("sim_watts_enh"),
        },
    )
