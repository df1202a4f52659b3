"""Command-line interface.

``repro list`` enumerates the paper's tables/figures; ``repro run <id>``
regenerates one (or ``all``); ``repro info`` prints the environment.
Scale is chosen with ``--scale`` or the ``REPRO_SCALE`` env var.

``repro run``, ``repro sweep`` and ``repro report`` accept ``--workers``
for the campaign they may build.  The campaign runs through the chunk executor
(:mod:`repro.harness.resilience`), one chunk per benchmark, serially or
over a process pool.  Each finished benchmark is cached on disk at once,
so a rerun of an interrupted invocation simulates only the benchmarks
still missing.  The sweep itself always runs in-process.
Expected operational errors (bad artifacts, unknown scales, malformed
sweeps, failed chunks) print one line to stderr and exit with code 2
instead of a traceback.

Observability (:mod:`repro.obs`): ``--trace PATH`` on ``run``/``sweep``
records a span/event trace readable with ``repro trace summary|tree``;
``--metrics`` prints the merged metrics snapshot (driver plus pool
workers).  ``-v/-vv`` raise logging verbosity on the ``repro.*``
namespace and ``-q`` silences everything below errors — without these,
the warning that a broken pool degraded to serial goes to stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from typing import List, Optional

from . import __version__
from .experiments import EXPERIMENTS, run_experiment, shared_context
from .harness import (
    PRESETS,
    ArtifactError,
    ChunkFailure,
    ResilienceError,
    ScaleError,
    SweepError,
    get_scale,
)


def _configure_logging(verbose: int, quiet: bool) -> None:
    """Attach a stderr handler to the ``repro`` logger namespace.

    Without this the root logger's last-resort handler drops everything
    below WARNING and mangles the rest; with it, the pool degradation
    message is actually visible.  Idempotent: repeated
    ``main()`` calls (tests) reuse the one handler and just adjust the
    level.
    """
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    for handler in logger.handlers:
        if getattr(handler, "_repro_cli", False):
            return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    handler._repro_cli = True
    logger.addHandler(handler)


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared --trace/--metrics flag group."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span/event trace (checksummed JSONL) to PATH; "
        "inspect it with 'repro trace summary PATH'",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the merged metrics snapshot (driver + workers) "
        "after the run",
    )


def _tracing_from_args(args: argparse.Namespace):
    """Context manager activating ``--trace PATH`` around a command body."""
    from contextlib import contextmanager

    from .obs import configure_tracing, disable_tracing

    @contextmanager
    def tracing():
        if args.trace:
            configure_tracing(args.trace)
        try:
            yield
        finally:
            if args.trace:
                disable_tracing()
                print(f"trace written to {args.trace}")

    return tracing()


def _campaign_report(ctx):
    """The run report of a campaign ``ctx`` built, or None.

    Only looks at a campaign the command actually built: touching
    ``ctx.campaign`` would force a build T1-style experiments never need.
    """
    campaign = getattr(ctx, "_campaign", None)
    return None if campaign is None else campaign.run_report


def _print_metrics(mark: dict, ctx) -> None:
    """Print driver-delta metrics merged with the campaign's chunk metrics.

    Chunk work runs in isolated registries (its metrics arrive only via
    the campaign's ``RunReport`` snapshot), so this merge never double
    counts, whichever path executed the chunks.
    """
    from .obs import get_registry, merge_snapshots, render_metrics

    report = _campaign_report(ctx)
    merged = merge_snapshots(
        get_registry().delta(mark), report.metrics if report else None
    )
    print("--- metrics ---")
    print(render_metrics(merged))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Lee & Brooks (HPCA 2007): regression-based "
            "microarchitectural design space studies."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise log verbosity on the repro.* namespace "
        "(-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors",
    )
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "ids",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        choices=sorted(PRESETS),
        default=None,
        help="scale preset (default: REPRO_SCALE or 'default')",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel simulation workers for the campaign phase",
    )
    _add_observability_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    info_parser = subparsers.add_parser("info", help="environment summary")
    info_parser.set_defaults(func=_cmd_info)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="blockwise exhaustive prediction sweep of the exploration space",
    )
    sweep_parser.add_argument(
        "--scale", choices=sorted(PRESETS), default=None,
        help="scale preset (default: REPRO_SCALE or 'default')",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel simulation workers for the campaign phase",
    )
    sweep_parser.add_argument(
        "--bins", type=int, default=50,
        help="delay bins for the pareto frontier (default 50)",
    )
    sweep_parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="restrict to these benchmarks (default: the full suite)",
    )
    sweep_parser.add_argument(
        "--space", choices=("exploration", "sampling"),
        default="exploration",
        help="which design space to sweep (default exploration)",
    )
    _add_observability_arguments(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a recorded trace file"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command")
    summary_parser = trace_sub.add_parser(
        "summary",
        help="per-span-name aggregates: count, total/mean/p95 wall, CPU",
    )
    summary_parser.add_argument("path", help="trace JSONL file")
    summary_parser.set_defaults(func=_cmd_trace_summary)
    tree_parser = trace_sub.add_parser(
        "tree", help="slowest-path span tree"
    )
    tree_parser.add_argument("path", help="trace JSONL file")
    tree_parser.add_argument(
        "--depth", type=int, default=8,
        help="maximum tree depth to print (default 8)",
    )
    tree_parser.set_defaults(func=_cmd_trace_tree)
    validate_parser = trace_sub.add_parser(
        "validate",
        help="check every line's schema and checksum, and that no id repeats",
    )
    validate_parser.add_argument("path", help="trace JSONL file")
    validate_parser.set_defaults(func=_cmd_trace_validate)

    analyze_parser = subparsers.add_parser(
        "analyze", help="run the repo's static-analysis rules"
    )
    analyze_parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to analyze (default: src/)",
    )
    analyze_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    analyze_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file (default: analysis-baseline.json if present)",
    )
    analyze_parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    analyze_parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into the baseline file and exit",
    )
    analyze_parser.add_argument(
        "--strict", action="store_true",
        help="fail on any finding (not just errors) and on stale baseline "
        "entries",
    )
    analyze_parser.add_argument(
        "--select", nargs="*", default=None, metavar="RULE",
        help="run only these rule ids, space- or comma-separated "
        "(e.g. DET001 LAY001 or DET001,LAY001)",
    )
    analyze_parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    analyze_parser.add_argument(
        "--graph", action="store_true",
        help="dump the import/call graph (entrypoints, RNG factories) as "
        "JSON and exit",
    )
    analyze_parser.set_defaults(func=_cmd_analyze)

    report_parser = subparsers.add_parser(
        "report", help="run experiments and write a markdown report"
    )
    report_parser.add_argument(
        "--output", default="report.md", help="output path (default report.md)"
    )
    report_parser.add_argument(
        "--scale", choices=sorted(PRESETS), default=None,
        help="scale preset (default: REPRO_SCALE or 'default')",
    )
    report_parser.add_argument(
        "--only", nargs="*", default=None,
        help="restrict to these experiment ids",
    )
    report_parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel simulation workers for the campaign phase",
    )
    report_parser.set_defaults(func=_cmd_report)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    for experiment_id, runner in EXPERIMENTS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:>4s}  {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .obs import get_registry

    ids: List[str] = args.ids
    if ids == ["all"]:
        ids = list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"choices: {', '.join(EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    scale = get_scale(args.scale)
    mark = get_registry().snapshot()
    with _tracing_from_args(args):
        ctx = shared_context(scale, workers=args.workers)
        for experiment_id in ids:
            started = time.time()
            result = run_experiment(experiment_id, ctx=ctx)
            elapsed = time.time() - started
            print(
                f"=== {result.id}: {result.title} "
                f"[{elapsed:.1f}s @ {scale.name}] ==="
            )
            print(result.text)
            print()
    report = _campaign_report(ctx)
    if report is not None:
        print(f"campaign execution: {report.summary()}")
    if args.metrics:
        _print_metrics(mark, ctx)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .harness.report import write_report

    scale = get_scale(args.scale)
    ctx = shared_context(scale, workers=args.workers)
    try:
        path = write_report(ctx, Path(args.output), experiment_ids=args.only)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    import json as _json

    from .analysis import (
        CACHE_SUBDIR,
        Baseline,
        BaselineError,
        UsageError,
        all_rules,
        analyze_paths,
        dataflow_index,
        render_json,
        render_text,
    )

    if args.list_rules:
        for rule in all_rules():
            print(
                f"{rule.id}  {rule.severity.label:>7s}  {rule.scope:>7s}  "
                f"{rule.name}"
            )
        return 0

    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.graph:
        try:
            index = dataflow_index(paths, cache_dir=CACHE_SUBDIR)
        except UsageError as error:
            print(error, file=sys.stderr)
            return 2
        print(_json.dumps(index.to_json(), indent=2))
        return 0

    baseline_path = Path(args.baseline) if args.baseline else Path(
        "analysis-baseline.json"
    )
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as error:
            print(error, file=sys.stderr)
            return 2

    selected = None
    if args.select is not None:
        selected = [
            rule for token in args.select for rule in token.split(",") if rule
        ]
    try:
        report = analyze_paths(
            paths,
            rules=selected,
            baseline=baseline,
            cache_dir=CACHE_SUBDIR,
        )
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(report.findings).save(baseline_path)
        print(
            f"wrote {len(report.findings)} baseline entries to "
            f"{baseline_path} (fill in the reason fields)"
        )
        return 0

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(strict=args.strict)


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep the exploration set for the benchmarks, printing reductions.

    One pass of the streaming engine folds every benchmark into its own
    pareto-frontier and efficiency-argmax reducers; then the frontier
    size and bips^3/w-optimal design of each benchmark are printed, and
    the pass's throughput.
    """
    from .harness import (
        ParetoFrontierReducer,
        TopKReducer,
        render_design_point,
    )
    from .harness.sweep import run_sweep
    from .obs import get_registry

    scale = get_scale(args.scale)
    ctx = shared_context(scale, workers=args.workers)
    benchmarks = args.benchmarks or list(ctx.benchmarks)
    unknown = [b for b in benchmarks if b not in ctx.benchmarks]
    if unknown:
        print(f"unknown benchmarks: {unknown}", file=sys.stderr)
        print(f"choices: {', '.join(ctx.benchmarks)}", file=sys.stderr)
        return 2

    if args.space == "sampling":
        import numpy as np

        from .designspace import PointSet, sampling_space

        # The sampling space sweeps whole: prediction is cheap enough
        # that no scale subsampling is needed (the point of the paper).
        space = sampling_space()
        points = PointSet(space, np.arange(len(space)))
    else:
        points = ctx.exploration_points()
    print(
        f"sweeping {len(points):,} {args.space} designs per benchmark "
        f"[scale={scale.name}, workers={args.workers}]"
    )
    mark = get_registry().snapshot()
    with _tracing_from_args(args):
        report = run_sweep(
            [ctx.predictor(benchmark) for benchmark in benchmarks],
            points,
            [
                [
                    ParetoFrontierReducer(bins=args.bins),
                    TopKReducer(metric="efficiency", k=1),
                ]
                for _ in benchmarks
            ],
        )
    for benchmark, (front, best) in zip(benchmarks, report.results):
        print(f"=== {benchmark} ===")
        print(f"  frontier: {len(front)} designs across {args.bins} delay bins")
        print(f"  bips^3/w optimum: {render_design_point(best.points[0])}")
        print(
            f"    bips={best.bips[0]:.3f}  watts={best.watts[0]:.2f}  "
            f"efficiency={best.efficiency[0]:.4g}"
        )
    print(
        f"throughput: {report.points_per_second:,.0f} points/s over "
        f"{len(benchmarks)} benchmarks ({report.elapsed_seconds * 1e3:.0f} ms)"
    )
    if args.metrics:
        _print_metrics(mark, ctx)
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    """Aggregate a trace per span name (count, total/mean/p95 wall, CPU)."""
    from .obs import TraceError, read_trace, render_summary

    try:
        records = read_trace(args.path)
    except (OSError, TraceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_summary(records))
    return 0


def _cmd_trace_tree(args: argparse.Namespace) -> int:
    """Render a trace as a slowest-path span tree."""
    from .obs import TraceError, read_trace, render_tree

    try:
        records = read_trace(args.path)
    except (OSError, TraceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_tree(records, max_depth=args.depth))
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    """Strictly validate every trace line (schema, checksums, unique ids)."""
    from .obs import TraceError, read_trace

    try:
        records = read_trace(args.path, strict=True)
    except (OSError, TraceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spans = sum(1 for r in records if r["kind"] == "span")
    events = len(records) - spans
    print(f"{args.path}: OK ({spans} spans, {events} events)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .designspace import exploration_space, sampling_space
    from .workloads import BENCHMARK_NAMES

    scale = get_scale()
    print(f"repro {__version__}")
    print(f"sampling space:    {len(sampling_space()):,} designs")
    print(f"exploration space: {len(exploration_space()):,} designs")
    print(f"benchmarks:        {', '.join(BENCHMARK_NAMES)}")
    print(f"active scale:      {scale.name} (trace={scale.trace_length}, "
          f"train={scale.n_train}, val={scale.n_validation})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except ChunkFailure as error:
        # A chunk raised or returned a bad payload; show what completed
        # (those benchmarks are cached, so a rerun skips them) and the
        # reason.
        if error.report is not None:
            print(f"error: {error.report.summary()}", file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ArtifactError, ResilienceError, ScaleError, SweepError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
