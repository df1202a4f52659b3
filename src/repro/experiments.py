"""Experiment registry: one runner per paper table and figure.

Each runner regenerates the data behind one artifact of the paper's
evaluation (see DESIGN.md's experiment index) and renders it as text.
The registry powers the CLI (``repro run F5a``, which prints each
experiment's seconds) and the golden digests (``tests/golden/``).

Experiment ids: T1-T4 (tables), F1-F9b (figures), X1-X12 (extensions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .designspace import sampling_space
from .harness import (
    Series,
    get_scale,
    render_boxplot,
    render_boxplot_panel,
    render_series,
    render_table,
)
from .harness.scale import ScalePreset
from .regression import (
    boxplot_stats,
    error_table,
    fit_models,
    fit_ols,
    linear_terms,
    main_effects_only_terms,
    performance_spec,
    power_spec,
    validate_model,
)
from .simulator import baseline_config, config_from_point
from .studies import StudyContext, depth, heterogeneity, pareto, search
from .workloads import REPRESENTATIVE


@dataclass
class ExperimentResult:
    """Rendered output + structured data of one experiment."""

    id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)


_CONTEXTS: Dict[str, StudyContext] = {}


def shared_context(
    scale: Optional[ScalePreset] = None,
    workers: int = 1,
) -> StudyContext:
    """Process-wide context per scale: one campaign serves every figure.

    ``workers`` only takes effect when the context for this scale is
    first built — the campaign runs once and is shared afterwards.
    """
    scale = scale or get_scale()
    if scale.name not in _CONTEXTS:
        _CONTEXTS[scale.name] = StudyContext(
            scale=scale,
            workers=workers,
        )
    return _CONTEXTS[scale.name]


# -- tables ---------------------------------------------------------------


def run_t1(ctx: StudyContext) -> ExperimentResult:
    """Table 1: the design space definition."""
    space = sampling_space()
    rows = []
    for parameter in space.parameters:
        values = parameter.values
        rows.append(
            [
                parameter.group,
                parameter.name,
                parameter.unit,
                f"{values[0]}..{values[-1]}",
                parameter.cardinality,
            ]
        )
    text = render_table(
        ["Set", "Parameter", "Measure", "Range", "|Si|"],
        rows,
        title=f"Table 1 design space: |S| = {len(space):,}",
    )
    return ExperimentResult("T1", "Design space", text, {"size": len(space)})


def run_t2(ctx: StudyContext) -> ExperimentResult:
    """Table 2: per-benchmark bips^3/w-maximizing architectures."""
    rows = pareto.table2(ctx, validate=True)
    table_rows = []
    for r in rows:
        p = r.point
        table_rows.append(
            [
                r.benchmark,
                int(p["depth"]),
                int(p["width"]),
                int(p["gpr_phys"]),
                int(p["br_resv"]),
                int(p["il1_kb"]),
                int(p["dl1_kb"]),
                p["l2_mb"],
                r.predicted_delay,
                f"{r.delay_error * 100:+.1f}%",
                r.predicted_watts,
                f"{r.power_error * 100:+.1f}%",
            ]
        )
    text = render_table(
        ["bench", "Depth", "Width", "Reg", "Resv", "I-$", "D-$", "L2-$",
         "Delay", "DErr", "Power", "PErr"],
        table_rows,
        title="Table 2: bips^3/w maximizing per-benchmark architectures",
    )
    return ExperimentResult(
        "T2", "Efficiency optima", text, {"rows": rows}
    )


def run_t3(ctx: StudyContext) -> ExperimentResult:
    """Table 3: the POWER4-like baseline."""
    config = baseline_config()
    summary = config.describe()
    rows = [[key, value] for key, value in summary.items()]
    text = render_table(
        ["setting", "value"], rows, title="Table 3: baseline architecture"
    )
    return ExperimentResult("T3", "Baseline architecture", text, {"config": summary})


def run_t4(ctx: StudyContext) -> ExperimentResult:
    """Table 4: K=4 compromise architectures."""
    clustering = heterogeneity.table4(ctx, k=4)
    rows = []
    for i, cluster in enumerate(clustering.clusters, start=1):
        p = cluster.point
        rows.append(
            [
                i,
                int(p["depth"]),
                int(p["width"]),
                int(p["gpr_phys"]),
                int(p["br_resv"]),
                int(p["il1_kb"]),
                int(p["dl1_kb"]),
                p["l2_mb"],
                cluster.mean_delay,
                cluster.mean_power,
                ",".join(cluster.benchmarks),
            ]
        )
    text = render_table(
        ["Cluster", "Depth", "Width", "Reg", "Resv", "I-$", "D-$", "L2-$",
         "AvgDelay", "AvgPower", "Benchmarks"],
        rows,
        title="Table 4: K=4 compromise architectures",
    )
    return ExperimentResult(
        "T4", "Compromise architectures", text, {"clustering": clustering}
    )


# -- figures ----------------------------------------------------------------


def run_f1(ctx: StudyContext) -> ExperimentResult:
    """Figure 1: validation error boxplots for random designs."""
    perf_panel, power_panel = {}, {}
    perf_summaries, power_summaries = [], []
    for benchmark in ctx.benchmarks:
        data = ctx.campaign.dataset(benchmark, "validation").columns()
        perf = validate_model(ctx.model(benchmark, "bips"), data, benchmark)
        power = validate_model(ctx.model(benchmark, "watts"), data, benchmark)
        perf_panel[benchmark] = perf.stats
        power_panel[benchmark] = power.stats
        perf_summaries.append(perf)
        power_summaries.append(power)
    text = "\n\n".join(
        [
            render_boxplot_panel(
                "Figure 1 (left): performance prediction error",
                perf_panel,
                percent=True,
            ),
            render_boxplot_panel(
                "Figure 1 (right): power prediction error", power_panel, percent=True
            ),
            f"medians (%): perf={error_table(perf_summaries)}",
            f"medians (%): power={error_table(power_summaries)}",
        ]
    )
    return ExperimentResult(
        "F1",
        "Random validation errors",
        text,
        {
            "perf_medians": error_table(perf_summaries),
            "power_medians": error_table(power_summaries),
        },
    )


def run_f2(ctx: StudyContext) -> ExperimentResult:
    """Figure 2: predicted delay/power characterization."""
    blocks = []
    data = {}
    for benchmark in REPRESENTATIVE:
        table = pareto.characterize(ctx, benchmark)
        trend = pareto.resource_trend(ctx, benchmark, "l2_mb")
        lines = [
            f"{benchmark}: {len(table)} designs, "
            f"delay {table.delay.min():.2f}..{table.delay.max():.2f}s, "
            f"power {table.watts.min():.1f}..{table.watts.max():.1f}W"
        ]
        for level, stats in trend.items():
            lines.append(
                f"  L2={level:>4}MB: mean delay {stats['mean_delay']:.2f}s, "
                f"mean power {stats['mean_power']:.1f}W"
            )
        blocks.append("\n".join(lines))
        data[benchmark] = {"trend_l2": trend}
    text = "Figure 2: design space characterization\n" + "\n".join(blocks)
    return ExperimentResult("F2", "Characterization", text, data)


def run_f3(ctx: StudyContext) -> ExperimentResult:
    """Figure 3: modeled vs simulated pareto optima."""
    blocks = []
    data = {}
    validations = pareto.validate_frontiers(ctx, REPRESENTATIVE)
    for benchmark, validation in validations.items():
        modeled = Series(
            f"{benchmark}-modeled",
            tuple(validation.model_delay),
            tuple(validation.model_power),
        )
        simulated = Series(
            f"{benchmark}-simulated",
            tuple(validation.simulated_delay),
            tuple(validation.simulated_power),
        )
        blocks += [render_series(modeled), render_series(simulated)]
        data[benchmark] = validation
    text = "Figure 3: pareto frontiers (delay, power)\n" + "\n".join(blocks)
    return ExperimentResult("F3", "Pareto frontiers", text, data)


def run_f4(ctx: StudyContext) -> ExperimentResult:
    """Figure 4: error distributions on the pareto frontier."""
    delay_panel, power_panel = {}, {}
    medians = {"delay": {}, "power": {}}
    validations = pareto.validate_frontiers(ctx, ctx.benchmarks)
    for benchmark, validation in validations.items():
        delay_panel[benchmark] = validation.delay_errors.stats
        power_panel[benchmark] = validation.power_errors.stats
        medians["delay"][benchmark] = validation.delay_errors.median_percent
        medians["power"][benchmark] = validation.power_errors.median_percent
    overall_delay = float(np.median(list(medians["delay"].values())))
    overall_power = float(np.median(list(medians["power"].values())))
    text = "\n\n".join(
        [
            render_boxplot_panel(
                "Figure 4 (left): frontier delay error", delay_panel, percent=True
            ),
            render_boxplot_panel(
                "Figure 4 (right): frontier power error", power_panel, percent=True
            ),
            f"overall medians: delay={overall_delay:.1f}% power={overall_power:.1f}%",
        ]
    )
    medians["overall_delay"] = overall_delay
    medians["overall_power"] = overall_power
    return ExperimentResult("F4", "Frontier errors", text, medians)


def run_f5a(ctx: StudyContext) -> ExperimentResult:
    """Figure 5a: original line + enhanced boxplots per depth."""
    summary = depth.suite_depth_summary(ctx)
    lines = ["Figure 5a: efficiency relative to original bips^3/w optimum"]
    line_series = Series(
        "original (line plot)",
        tuple(summary.depths),
        tuple(summary.original_relative),
    )
    lines.append(render_series(line_series))
    for d in summary.depths:
        stats = summary.distributions[d]
        bound = summary.bound_relative[d]
        exceed = summary.exceed_baseline_fraction[d]
        lines.append(
            render_boxplot(f"{int(d)}FO4", stats)
            + f" bound={bound:.2f} frac>baseline={exceed * 100:.0f}%"
        )
    return ExperimentResult(
        "F5a", "Depth efficiency", "\n".join(lines), {"summary": summary}
    )


def run_f5b(ctx: StudyContext) -> ExperimentResult:
    """Figure 5b: d-L1 sizes among the 95th-percentile designs."""
    distribution = depth.top_percentile_cache_distribution(ctx)
    sizes = sorted(next(iter(distribution.values())))
    rows = [
        [int(d)] + [f"{distribution[d][size] * 100:.1f}%" for size in sizes]
        for d in distribution
    ]
    text = render_table(
        ["FO4"] + [f"{int(s)}KB" for s in sizes],
        rows,
        title="Figure 5b: d-L1 size distribution of 95th percentile designs",
    )
    return ExperimentResult(
        "F5b", "Top-design cache sizes", text, {"distribution": distribution}
    )


def run_f6(ctx: StudyContext) -> ExperimentResult:
    """Figure 6: predicted vs simulated efficiency, both analyses."""
    validation = depth.validate_depth_study(ctx)
    depths = tuple(validation.depths)
    series = [
        Series("predicted-original", depths, tuple(validation.predicted_original)),
        Series("simulated-original", depths, tuple(validation.simulated_original)),
        Series("predicted-enhanced", depths, tuple(validation.predicted_enhanced)),
        Series("simulated-enhanced", depths, tuple(validation.simulated_enhanced)),
    ]
    text = "Figure 6: depth-study validation (relative bips^3/w)\n" + "\n".join(
        render_series(s) for s in series
    )
    return ExperimentResult("F6", "Depth validation", text, {"validation": validation})


def run_f7(ctx: StudyContext) -> ExperimentResult:
    """Figure 7: decomposed performance and power validation."""
    validation = depth.validate_depth_study(ctx)
    series = []
    for analysis in ("original", "enhanced"):
        series += [
            Series(f"bips-predicted-{analysis}", tuple(validation.depths),
                   tuple(validation.predicted_bips[analysis])),
            Series(f"bips-simulated-{analysis}", tuple(validation.depths),
                   tuple(validation.simulated_bips[analysis])),
            Series(f"watts-predicted-{analysis}", tuple(validation.depths),
                   tuple(validation.predicted_watts[analysis])),
            Series(f"watts-simulated-{analysis}", tuple(validation.depths),
                   tuple(validation.simulated_watts[analysis])),
        ]
    text = "Figure 7: decomposed depth validation\n" + "\n".join(
        render_series(s) for s in series
    )
    return ExperimentResult(
        "F7", "Decomposed validation", text, {"validation": validation}
    )


def run_f8(ctx: StudyContext) -> ExperimentResult:
    """Figure 8: delay/power of optima vs K=4 compromises."""
    mapping = heterogeneity.delay_power_map(ctx)
    lines = ["Figure 8: delay/power map (optima then compromises)"]
    for benchmark, (d, p) in mapping.optima.items():
        cluster = mapping.assignment[benchmark]
        lines.append(
            f"  {benchmark:7s}: delay={d:.2f}s power={p:.1f}W cluster={cluster + 1}"
        )
    for i, (d, p) in enumerate(mapping.compromises, start=1):
        lines.append(f"  compromise {i}: delay={d:.2f}s power={p:.1f}W")
    return ExperimentResult("F8", "Delay/power map", "\n".join(lines), {"map": mapping})


def run_f9a(ctx: StudyContext) -> ExperimentResult:
    """Figure 9a: predicted efficiency gains vs cluster count."""
    sweep = heterogeneity.k_sweep(ctx, simulate=False)
    lines = ["Figure 9a: predicted bips^3/w gains vs heterogeneity"]
    lines.append(
        render_series(
            Series("average", tuple(sweep.cluster_counts), tuple(sweep.average))
        )
    )
    for benchmark, gains in sweep.per_benchmark.items():
        lines.append(
            render_series(Series(benchmark, tuple(sweep.cluster_counts), tuple(gains)))
        )
    return ExperimentResult(
        "F9a", "Predicted heterogeneity gains", "\n".join(lines), {"sweep": sweep}
    )


def run_f9b(ctx: StudyContext) -> ExperimentResult:
    """Figure 9b: simulated efficiency gains vs cluster count."""
    sweep = heterogeneity.k_sweep(ctx, simulate=True)
    lines = ["Figure 9b: simulated bips^3/w gains vs heterogeneity"]
    lines.append(
        render_series(
            Series("average", tuple(sweep.cluster_counts), tuple(sweep.average))
        )
    )
    for benchmark, gains in sweep.per_benchmark.items():
        lines.append(
            render_series(Series(benchmark, tuple(sweep.cluster_counts), tuple(gains)))
        )
    return ExperimentResult(
        "F9b", "Simulated heterogeneity gains", "\n".join(lines), {"sweep": sweep}
    )


# -- extensions ---------------------------------------------------------------


def run_x1(ctx: StudyContext) -> ExperimentResult:
    """Ablation: model form (full vs no interactions vs linear)."""
    variants = {
        "paper (splines+interactions)": None,
        "no interactions": main_effects_only_terms(),
        "linear only": linear_terms(),
    }
    rows = []
    data = {}
    for label, terms in variants.items():
        perf_summaries, power_summaries = [], []
        for benchmark in ctx.benchmarks:
            train = ctx.campaign.dataset(benchmark, "train").columns()
            val = ctx.campaign.dataset(benchmark, "validation").columns()
            perf_model_spec = performance_spec()
            power_model_spec = power_spec()
            if terms is not None:
                perf_model_spec = perf_model_spec.with_terms(terms, name=label)
                power_model_spec = power_model_spec.with_terms(terms, name=label)
            perf_model, power_model = fit_models(
                [perf_model_spec, power_model_spec], train
            )
            perf_summaries.append(validate_model(perf_model, val, benchmark))
            power_summaries.append(validate_model(power_model, val, benchmark))
        perf_median = error_table(perf_summaries)["overall"]
        power_median = error_table(power_summaries)["overall"]
        rows.append([label, perf_median, power_median])
        data[label] = {"perf": perf_median, "power": power_median}
    text = render_table(
        ["model form", "perf median err (%)", "power median err (%)"],
        rows,
        title="X1: model-form ablation",
    )
    return ExperimentResult("X1", "Model ablation", text, data)


def run_x2(ctx: StudyContext) -> ExperimentResult:
    """Ablation: training sample size vs validation error."""
    campaign = ctx.campaign
    n_total = len(campaign.train_points)
    fractions = (0.25, 0.5, 0.75, 1.0)
    rows = []
    data = {}
    for fraction in fractions:
        n = max(40, int(n_total * fraction))
        n = min(n, n_total)
        perf_summaries = []
        for benchmark in ctx.benchmarks:
            dataset = campaign.dataset(benchmark, "train").subset(range(n))
            val = campaign.dataset(benchmark, "validation").columns()
            model = fit_ols(performance_spec(), dataset.columns())
            perf_summaries.append(validate_model(model, val, benchmark))
        median = error_table(perf_summaries)["overall"]
        rows.append([n, median])
        data[n] = median
    text = render_table(
        ["training samples", "perf median err (%)"],
        rows,
        title="X2: sample-size ablation",
    )
    return ExperimentResult("X2", "Sample-size ablation", text, data)


def run_x3(ctx: StudyContext) -> ExperimentResult:
    """Extension: heuristic search vs exhaustive prediction."""
    rows = []
    data = {}
    for benchmark in REPRESENTATIVE:
        comparison = search.compare_search_strategies(ctx, benchmark)
        rows.append(
            [
                benchmark,
                comparison.exhaustive_evaluations,
                comparison.descent.evaluations,
                f"{comparison.descent_quality * 100:.1f}%",
                comparison.genetic.evaluations,
                f"{comparison.genetic_quality * 100:.1f}%",
            ]
        )
        data[benchmark] = comparison
    text = render_table(
        ["bench", "exhaustive evals", "descent evals", "descent quality",
         "genetic evals", "genetic quality"],
        rows,
        title="X3: regression-guided heuristic search",
    )
    return ExperimentResult("X3", "Heuristic search", text, data)


def run_x4(ctx: StudyContext) -> ExperimentResult:
    """Extension: bips^3/w voltage invariance (footnote 2)."""
    from .power import invariance_study, split_power

    config = baseline_config()
    (result,) = ctx.simulate("gzip", [ctx.baseline])
    parts = split_power(config, result)
    study = invariance_study(config, result)
    rows = [
        [f"{p.voltage_scale:.2f}", f"{p.bips:.2f}", f"{p.watts:.1f}",
         f"{p.bips_per_watt:.4f}", f"{p.bips3_per_watt:.4f}"]
        for p in study.points
    ]
    table = render_table(
        ["V scale", "bips", "watts", "bips/w", "bips^3/w"], rows,
        title="X4: voltage sweep of the baseline design (gzip)",
    )
    spreads = ", ".join(
        f"{name}={value:.2f}x" for name, value in study.spreads.items()
    )
    static_share = parts["static"] / parts["total"]
    text = "\n".join(
        [
            table,
            f"metric spreads over the sweep: {spreads}",
            f"static power share {static_share * 100:.0f}% — the residual "
            "bips^3/w drift comes entirely from leakage's sub-cubic "
            "voltage scaling",
        ]
    )
    return ExperimentResult("X4", "Voltage invariance", text, {
        "spreads": study.spreads, "static_share": static_share,
    })


def run_x5(ctx: StudyContext) -> ExperimentResult:
    """Extension: sampler comparison (UAR vs stratified vs Halton)."""
    from .designspace import sample_halton, sample_stratified, sample_uar
    from .harness.dataset import Dataset

    space = ctx.sampling_space
    scale = ctx.scale
    n = scale.n_train
    samplers = {
        "UAR (paper)": lambda: sample_uar(space, n, seed=scale.seed + 11),
        "stratified by depth": lambda: sample_stratified(
            space, "depth",
            max(1, n // space.parameter("depth").cardinality),
            seed=scale.seed + 11,
        ),
        "halton": lambda: sample_halton(space, n),
    }
    benchmarks = ("gzip", "mcf")
    rows = []
    data_out = {}
    for label, draw in samplers.items():
        points = draw()
        configs = [config_from_point(space, point) for point in points]
        medians = []
        for benchmark in benchmarks:
            results = ctx.simulate(benchmark, configs)
            dataset = Dataset.from_results(benchmark, space, points, results)
            model = fit_ols(performance_spec(), dataset.columns())
            validation = ctx.campaign.dataset(benchmark, "validation").columns()
            summary = validate_model(model, validation, benchmark)
            medians.append(summary.median_percent)
        rows.append([label, len(points)] + [f"{m:.2f}%" for m in medians])
        data_out[label] = dict(zip(benchmarks, medians))
    text = render_table(
        ["sampler", "n"] + [f"{b} perf err" for b in benchmarks],
        rows,
        title="X5: design-space sampler comparison (validation median error)",
    )
    return ExperimentResult("X5", "Sampler comparison", text, data_out)


def run_x6(ctx: StudyContext) -> ExperimentResult:
    """Extension: regression vs ANN comparator (Ipek et al. [5])."""
    import time as time_module

    from .baselines import ANNConfig, fit_ann
    from .regression import PREDICTORS, SqrtTransform, prediction_errors

    rows = []
    data_out = {}
    for benchmark in ("gzip", "mcf", "mesa"):
        train = ctx.campaign.dataset(benchmark, "train").columns()
        validation = ctx.campaign.dataset(benchmark, "validation").columns()

        started = time_module.perf_counter()
        regression = fit_ols(performance_spec(), train)
        regression_fit_s = time_module.perf_counter() - started
        regression_err = 100 * float(
            np.median(
                prediction_errors(validation["bips"], regression.predict(validation))
            )
        )

        started = time_module.perf_counter()
        ann = fit_ann(
            train, "bips", PREDICTORS,
            transform=SqrtTransform(),
            config=ANNConfig(hidden_units=16, epochs=2500, learning_rate=0.2, seed=3),
        )
        ann_fit_s = time_module.perf_counter() - started
        ann_err = 100 * float(
            np.median(prediction_errors(validation["bips"], ann.predict(validation)))
        )
        rows.append([
            benchmark,
            f"{regression_err:.2f}%", f"{regression_fit_s * 1000:.0f}ms",
            f"{ann_err:.2f}%", f"{ann_fit_s * 1000:.0f}ms",
        ])
        data_out[benchmark] = {
            "regression_err": regression_err,
            "ann_err": ann_err,
            "regression_fit_s": regression_fit_s,
            "ann_fit_s": ann_fit_s,
        }
    text = render_table(
        ["bench", "OLS err", "OLS fit", "ANN err", "ANN fit"],
        rows,
        title="X6: regression vs neural-network comparator (perf model)",
    )
    return ExperimentResult("X6", "ANN comparison", text, data_out)


def run_x7(ctx: StudyContext) -> ExperimentResult:
    """Extension: the future-work space (associativity + in-order issue)."""
    from .designspace import DesignEncoder, extended_space, sample_uar
    from .regression import extended_performance_spec, prediction_errors

    space = extended_space()
    scale = ctx.scale
    points = sample_uar(space, scale.n_train, seed=scale.seed + 13)
    configs = [config_from_point(space, point) for point in points]
    encoder = DesignEncoder(space)
    matrix = encoder.encode(points)
    rows = []
    data_out = {}
    for benchmark in ("gzip", "mesa"):
        results = ctx.simulate(benchmark, configs)
        data = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
        data["bips"] = np.array([r.bips for r in results])
        holdout = max(10, len(points) // 5)
        train = {k: v[:-holdout] for k, v in data.items()}
        test = {k: v[-holdout:] for k, v in data.items()}
        model = fit_ols(extended_performance_spec(), train)
        errors = prediction_errors(test["bips"], model.predict(test))
        base = space.snap(
            depth=18, width=8, gpr_phys=80, br_resv=12, il1_kb=64,
            dl1_kb=32, l2_mb=2.0, dl1_assoc=2, in_order=0,
        )
        pair = encoder.encode([base, base.replace(in_order=1)])
        columns = {n: pair[:, j] for j, n in enumerate(encoder.feature_names)}
        ooo, ino = model.predict(columns)
        rows.append([
            benchmark, f"{model.r_squared:.3f}",
            f"{100 * float(np.median(errors)):.2f}%",
            f"{ooo / ino:.2f}x",
        ])
        data_out[benchmark] = {
            "r_squared": model.r_squared,
            "median_err": float(np.median(errors)),
            "ooo_gain": float(ooo / ino),
        }
    text = render_table(
        ["bench", "R^2", "holdout err", "OoO bips gain @ width 8"],
        rows,
        title="X7: extended design space (dl1 associativity + issue discipline)",
    )
    return ExperimentResult("X7", "Extended space", text, data_out)


def run_x8(ctx: StudyContext) -> ExperimentResult:
    """Extension: idealized next-line prefetching, per benchmark."""
    rows = []
    data_out = {}
    config_off = baseline_config()
    config_on = baseline_config().with_overrides(prefetch=True)
    for benchmark in ctx.benchmarks:
        off, on = ctx.simulate(benchmark, [config_off, config_on])
        speedup = on.bips / off.bips
        efficiency_gain = on.bips3_per_watt / off.bips3_per_watt
        coverage = (
            on.counts.prefetch_covered / off.counts.dl1_misses
            if off.counts.dl1_misses
            else 0.0
        )
        rows.append([
            benchmark, f"{off.bips:.2f}", f"{on.bips:.2f}",
            f"{speedup:.2f}x", f"{coverage * 100:.0f}%",
            f"{efficiency_gain:.2f}x",
        ])
        data_out[benchmark] = {
            "speedup": speedup,
            "coverage": coverage,
            "efficiency_gain": efficiency_gain,
        }
    text = render_table(
        ["bench", "bips off", "bips on", "speedup", "miss coverage",
         "bips^3/w gain"],
        rows,
        title="X8: idealized next-line prefetching at the baseline design",
    )
    return ExperimentResult("X8", "Prefetching", text, data_out)


def run_x9(ctx: StudyContext) -> ExperimentResult:
    """Extension: bootstrap robustness of study conclusions."""
    from .studies import robustness

    replicates = 15
    rows = []
    data_out = {}
    for benchmark in ("ammp", "mcf", "gzip"):
        stability = robustness.optimum_stability(
            ctx, benchmark, replicates=replicates, seed=5
        )
        agreement = stability.parameter_agreement
        rows.append([
            benchmark,
            f"{stability.modal_fraction * 100:.0f}%",
            f"{agreement['depth'] * 100:.0f}%",
            f"{agreement['width'] * 100:.0f}%",
            f"{agreement['l2_mb'] * 100:.0f}%",
            f"{stability.efficiency_cv * 100:.1f}%",
        ])
        data_out[benchmark] = stability
    table = render_table(
        ["bench", "modal design", "depth agree", "width agree",
         "L2 agree", "eff. CV"],
        rows,
        title=f"X9: bootstrap stability of Table 2 optima ({replicates} replicates)",
    )
    depth_stability = robustness.depth_optimum_stability(
        ctx, replicates=replicates, seed=5, benchmarks=["ammp", "mcf", "gzip"]
    )
    histogram = " ".join(
        f"{int(d)}:{f * 100:.0f}%"
        for d, f in depth_stability.depth_histogram.items()
        if f
    )
    text = "\n".join(
        [
            table,
            f"suite depth optimum: nominal {int(depth_stability.nominal_depth)}FO4; "
            f"bootstrap histogram {histogram}; "
            f"{depth_stability.within_one_level * 100:.0f}% of replicates within "
            "one grid level",
        ]
    )
    data_out["depth"] = depth_stability
    return ExperimentResult("X9", "Conclusion robustness", text, data_out)


def run_x10(ctx: StudyContext) -> ExperimentResult:
    """Extension: scheduling the suite on a heterogeneous CMP."""
    from .studies import scheduling

    comparison = scheduling.compare_cmp_designs(ctx, core_types=4)
    rows = []
    for benchmark, core in comparison.heterogeneous.assignment.items():
        efficiency = comparison.heterogeneous.per_benchmark_efficiency[benchmark]
        homo_eff = comparison.homogeneous.per_benchmark_efficiency[benchmark]
        point = comparison.heterogeneous.cores[core]
        rows.append([
            benchmark,
            f"{int(point['depth'])}/{int(point['width'])}/{point['l2_mb']}",
            f"{efficiency / homo_eff:.2f}x",
        ])
    table = render_table(
        ["bench", "core (FO4/width/L2MB)", "gain vs homogeneous"],
        rows,
        title="X10: optimal scheduling on the K=4 heterogeneous CMP",
    )
    text = "\n".join(
        [
            table,
            f"geomean bips^3/w: heterogeneous+optimal scheduling is "
            f"{comparison.heterogeneity_gain:.2f}x the homogeneous CMP; "
            f"optimal assignment is {comparison.scheduling_gain:.2f}x naive "
            "assignment on the same cores",
        ]
    )
    return ExperimentResult("X10", "CMP scheduling", text, {"comparison": comparison})


def run_x11(ctx: StudyContext) -> ExperimentResult:
    """Extension: which design parameters matter, per benchmark."""
    from .regression import predictor_importance

    rows = []
    data_out = {}
    for benchmark in ctx.benchmarks:
        data = ctx.campaign.dataset(benchmark, "train").columns()
        perf = predictor_importance(performance_spec(), data)
        power = predictor_importance(power_spec(), data)
        perf_shares = perf.shares()
        rows.append(
            [benchmark]
            + [f"{perf_shares[name] * 100:.0f}%" for name in
               ("depth", "width", "gpr_phys", "il1_kb", "dl1_kb", "l2_mb")]
            + [perf.ranked()[0], power.ranked()[0]]
        )
        data_out[benchmark] = {"perf": perf, "power": power}
    text = render_table(
        ["bench", "depth", "width", "regs", "i$", "d$", "l2",
         "top perf driver", "top power driver"],
        rows,
        title="X11: performance-variance share per design parameter "
              "(drop-one partial R^2)",
    )
    return ExperimentResult("X11", "Parameter importance", text, data_out)


def run_x12(ctx: StudyContext) -> ExperimentResult:
    """Extension: mechanistic interval model vs trained regression."""
    from .baselines import interval_model_for
    from .designspace import DesignEncoder
    from .regression import prediction_errors, spearman

    scale = ctx.scale
    space = ctx.exploration_space
    rows = []
    data_out = {}
    n_eval = min(25, scale.n_validation)
    for benchmark in ("gzip", "mcf", "mesa", "gcc"):
        trace = ctx.trace(benchmark)
        interval = interval_model_for(trace)
        points = ctx.exploration_points()[:n_eval]
        actual = np.array([r.bips for r in ctx.simulate(benchmark, points)])
        mech = np.array(
            [interval.predict_bips(config_from_point(space, p)) for p in points]
        )
        encoder = DesignEncoder(space)
        matrix = encoder.encode(points)
        columns = {n: matrix[:, j] for j, n in enumerate(encoder.feature_names)}
        learned = ctx.model(benchmark, "bips").predict(columns)
        mech_err = 100 * float(np.median(prediction_errors(actual, mech)))
        learned_err = 100 * float(np.median(prediction_errors(actual, learned)))
        rows.append([
            benchmark,
            f"{mech_err:.1f}%", f"{spearman(mech, actual):.2f}",
            f"{learned_err:.1f}%", f"{spearman(learned, actual):.2f}",
        ])
        data_out[benchmark] = {
            "mechanistic_err": mech_err,
            "regression_err": learned_err,
        }
    text = "\n".join([
        render_table(
            ["bench", "interval err", "interval rank-r",
             "regression err", "regression rank-r"],
            rows,
            title="X12: zero-training mechanistic model vs trained regression "
                  f"({n_eval} random designs each)",
        ),
        "the interval model costs zero simulations but pays in accuracy and "
        "ranking reliability — the gap the paper's sampled-training approach "
        "closes with ~1,000 simulations amortized over every later query",
    ])
    return ExperimentResult("X12", "Mechanistic baseline", text, data_out)


EXPERIMENTS: Dict[str, Callable[[StudyContext], ExperimentResult]] = {
    "T1": run_t1,
    "F1": run_f1,
    "F2": run_f2,
    "F3": run_f3,
    "F4": run_f4,
    "T2": run_t2,
    "T3": run_t3,
    "F5a": run_f5a,
    "F5b": run_f5b,
    "F6": run_f6,
    "F7": run_f7,
    "T4": run_t4,
    "F8": run_f8,
    "F9a": run_f9a,
    "F9b": run_f9b,
    "X1": run_x1,
    "X2": run_x2,
    "X3": run_x3,
    "X4": run_x4,
    "X5": run_x5,
    "X6": run_x6,
    "X7": run_x7,
    "X8": run_x8,
    "X9": run_x9,
    "X10": run_x10,
    "X11": run_x11,
    "X12": run_x12,
}


def run_experiment(
    experiment_id: str,
    ctx: Optional[StudyContext] = None,
    scale: Optional[ScalePreset] = None,
) -> ExperimentResult:
    """Run one experiment by id against the shared context."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"choices are {sorted(EXPERIMENTS)}"
        ) from None
    return runner(ctx or shared_context(scale))
