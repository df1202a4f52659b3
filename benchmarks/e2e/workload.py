"""One iteration of one end-to-end workload, in a fresh interpreter.

``run.py`` starts this file with ``PYTHONPATH=src`` once per iteration
and reads the JSON object it prints as its last line.  The iteration
builds a :class:`~repro.studies.StudyContext` (set-up), then runs the
workload's steps through the package's public functions (the timed
region), then records digests of every output and the work counters.

With ``--trace PATH`` the timed region runs under
:class:`trace_layers.LayerTracer`; the spans are written to ``PATH`` and
the per-layer metrics are added to the result.

``--prepare`` builds the seed's campaign artifact on the serial path and
prints its digest instead; the warm workloads load that artifact, and
the campaign workloads compare their digest against it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import sys
import time

#: The benchmark's scale: the ``ci`` preset with 1,000-instruction
#: traces, so every workload iteration takes a few seconds.
SCALE_OVERRIDES = {"name": "e2e", "trace_length": 1000}

#: ``predict-exhaustive`` predicts over the whole 262,500-design
#: exploration space, as the paper's exhaustive protocol does.
EXHAUSTIVE_OVERRIDES = {"exploration_limit": None, "per_depth_designs": 37500}

#: Pool width of ``campaign-pool`` (the benchmark host has 2 cores).
POOL_WORKERS = 2

WORKLOADS = ("campaign-cold", "studies-warm", "predict-exhaustive", "campaign-pool")

#: X6 prints wall-clock fit times; they are masked before digesting,
#: together with the column padding and rules whose width they set.
_FIT_TIME = re.compile(r"\d+ms")
_PADDING = re.compile(r"( |-)+")


def speed_probe() -> float:
    """Seconds a fixed piece of work takes on this host right now.

    The work uses no ``repro`` code, so no change to the package moves
    it: interpreted loops like the simulator's and a vectorised
    reduction like the predictor's.  ``run.py`` rescales set-up and step
    times by it, which cancels the host's own speed changes.  Garbage
    collection is off so the size of the package's heap does not leak in.
    """
    import gc

    import numpy as np

    rng = np.random.default_rng(0)
    matrix, vector = rng.random((20000, 40)), rng.random(40)
    gc.disable()
    try:
        started = time.perf_counter()
        accumulator, table = 0, {}
        for i in range(2_000_000):
            accumulator = (accumulator * 31 + i) % 1_000_003
            table[i & 1023] = accumulator
        for _ in range(600):
            int((matrix @ vector).argmax())
        return time.perf_counter() - started
    finally:
        gc.enable()


def campaign_digest(campaign) -> str:
    """sha256 over the bips/watts columns in (split, benchmark) order."""
    import numpy as np

    digest = hashlib.sha256()
    for split in ("train", "validation"):
        for benchmark in campaign.benchmarks:
            dataset = campaign.dataset(benchmark, split)
            for name in ("bips", "watts"):
                column = np.ascontiguousarray(dataset.metrics[name], dtype="<f8")
                digest.update(column.tobytes())
    return digest.hexdigest()


def text_digest(step: str, text: str) -> str:
    if step == "X6":
        text = _PADDING.sub(r"\1", _FIT_TIME.sub("<ms>", text))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_context(workload: str, seed: int):
    from repro.harness import PRESETS, ResilienceConfig
    from repro.studies import StudyContext

    scale = PRESETS["ci"].with_overrides(seed=seed, **SCALE_OVERRIDES)
    if workload == "predict-exhaustive":
        return StudyContext(scale=scale.with_overrides(**EXHAUSTIVE_OVERRIDES))
    if workload == "campaign-pool":
        return StudyContext(
            scale=scale,
            workers=POOL_WORKERS,
            resilience=ResilienceConfig(resume=True),
        )
    return StudyContext(scale=scale)


def _stability_text(ctx) -> str:
    """X9's bootstrap optimum study, cut to one benchmark and one replicate."""
    from repro.studies import robustness

    result = robustness.optimum_stability(ctx, "mcf", replicates=1, seed=5)
    return json.dumps(
        {
            "nominal": list(result.nominal_point.values),
            "modal": list(result.modal_point.values),
            "modal_fraction": result.modal_fraction,
            "agreement": result.parameter_agreement,
            "efficiency_cv": result.efficiency_cv,
        },
        sort_keys=True,
    )


def steps(workload: str):
    """(name, fn(ctx) -> text) for every step of a workload, in order."""
    from repro import experiments

    # Looked up at call time, so a traced iteration sees the wrapper.
    def experiment(step):
        return lambda ctx: experiments.run_experiment(step, ctx=ctx).text

    if workload in ("campaign-cold", "campaign-pool"):
        ids = ["F1"]
    elif workload == "studies-warm":
        ids = list(experiments.EXPERIMENTS)
    else:
        ids = ["T2", "F5a", "X3"]
    plan = [(step, experiment(step)) for step in ids]
    if workload == "predict-exhaustive":
        plan.append(("X9-mcf", _stability_text))
    return plan


class PredictionCounter:
    """Counts rows predicted through ``FittedModel.predict``."""

    def __init__(self) -> None:
        from repro.regression import FittedModel

        self.rows = 0
        self._cls = FittedModel
        self._original = FittedModel.__dict__["predict"]
        original = self._original
        counter = self

        def predict(self, data):
            result = original(self, data)
            counter.rows += len(result)
            return result

        FittedModel.predict = predict

    def close(self) -> None:
        self._cls.predict = self._original


def accuracy(ctx) -> dict:
    """F1's overall median errors of the performance and power models (%)."""
    from repro.regression import error_table, validate_model

    errors = {}
    for metric, key in (("bips", "perf_err_pct"), ("watts", "power_err_pct")):
        summaries = [
            validate_model(
                ctx.model(benchmark, metric),
                ctx.campaign.dataset(benchmark, "validation").columns(),
                benchmark,
            )
            for benchmark in ctx.benchmarks
        ]
        errors[key] = error_table(summaries)["overall"]
    return errors


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, snapshot: dict, ctx, errors: dict) -> dict:
    """The per-layer metrics of one traced iteration."""
    from trace_layers import LAYERS

    root = tracer.root_s()
    self_s = tracer.self_times()
    calls = tracer.counts()
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]

    def counter(name):
        return counters.get(name, 0.0)

    def hist(name, field):
        return histograms.get(name, {}).get(field, 0.0)

    def called(name, field=0):
        return calls.get(name, (0, 0, 0.0))[field]

    scalar_s = hist("simulator.simulate.seconds", "sum")
    batch_s = hist("simulator.simulate_batch.seconds", "sum")
    hits, misses = counter("sim.trace_cache.hit"), counter("sim.trace_cache.miss")
    report = ctx.campaign.run_report
    metrics = {f"{layer}_share": _ratio(self_s[layer], root) for layer in LAYERS}
    metrics.update(
        {
            "workloads.traces": counter("simulator.traces_generated"),
            "workloads.trace_cache_hit_ratio": _ratio(hits, hits + misses),
            "simulator.scalar_sims": counter("simulator.simulations"),
            "simulator.batch_calls": hist("simulator.simulate_batch.seconds", "count"),
            "simulator.batch_points": counter("simulator.batch.points"),
            "simulator.batch_mean_block": _ratio(
                counter("simulator.batch.points"), counter("simulator.batch.blocks")
            ),
            "simulator.scalar_sims_per_s": _ratio(
                counter("simulator.simulations"), scalar_s
            ),
            "simulator.batch_points_per_s": _ratio(
                counter("simulator.batch.points"), batch_s
            ),
            "simulator.minstr_per_s": _ratio(
                counter("simulator.instructions") / 1e6, scalar_s + batch_s
            ),
            "power.evals": called("PowerModel.evaluate"),
            "regression.fits": called("fit_ols"),
            "regression.predict_calls": called("FittedModel.predict"),
            "regression.predict_rows": called("FittedModel.predict", 1),
            "regression.perf_err_pct": errors["perf_err_pct"],
            "regression.power_err_pct": errors["power_err_pct"],
            "designspace.encode_calls": called("DesignEncoder.encode"),
            "designspace.encoded_rows": called("DesignEncoder.encode", 1),
            "sweep.runs": called("run_sweep"),
            "sweep.points": counter("sweep.points"),
            "sweep.points_per_s": _ratio(
                counter("sweep.points"), called("run_sweep", 2)
            ),
            "artifacts.cache_hits": counter("artifacts.cache.hits"),
            "artifacts.cache_misses": counter("artifacts.cache.misses"),
            "resilience.chunks": report.total_chunks if report else 0,
            "resilience.retries": report.retried if report else 0,
            "resilience.pool_restarts": report.pool_restarts if report else 0,
            "resilience.degraded": int(bool(report and report.degraded)),
            "resilience.parallel_efficiency": _ratio(
                tracer.chunk_wall_s, ctx.workers * called("run_chunks", 2)
            ),
            "studies.depth.validate_calls": called("validate_depth_study"),
            "studies.pareto.validate_frontier_calls": called("validate_frontier"),
            "trace.root_s": root,
            "trace.spans": len(tracer.spans),
        }
    )
    return metrics


def run_iteration(workload: str, seed: int, launched: float, trace_path) -> dict:
    from repro.obs.metrics import get_registry, merge_snapshots

    ctx = make_context(workload, seed)
    setup_s = time.monotonic() - launched

    plan = steps(workload)
    probe_before = speed_probe()
    originals = None
    tracer = None
    counter = PredictionCounter()
    if trace_path:
        from trace_layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        originals = tracer.patched()

    texts, seconds, failures = {}, {}, []

    def timed_region():
        for step, fn in plan:
            started = time.perf_counter()
            try:
                texts[step] = fn(ctx)
            except Exception as error:  # recorded as a failed operation
                failures.append(f"{step}: {type(error).__name__}: {error}")
            seconds[step] = time.perf_counter() - started

    started = time.perf_counter()
    if tracer is not None:
        tracer.run(timed_region)
    else:
        timed_region()
    wall_s = time.perf_counter() - started
    probe_after = speed_probe()

    restored = True
    if tracer is not None:
        tracer.uninstall()
        restored = all(
            owner.__dict__[name] is original for owner, name, original in originals
        )
    counter.close()

    report = ctx.campaign.run_report
    snapshot = merge_snapshots(
        get_registry().snapshot(), report.metrics if report else None
    )
    counters = snapshot["counters"]
    sims = counters.get("simulator.simulations", 0.0) + counters.get(
        "simulator.batch.points", 0.0
    )
    predictions = counter.rows + 2 * counters.get("sweep.points", 0.0)
    errors = accuracy(ctx)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probes_s": [probe_before, probe_after],
        "sims": sims,
        "predictions": predictions,
        "peak_rss_mb": peak_rss_mb(),
        "campaign": campaign_digest(ctx.campaign),
        "digests": {step: text_digest(step, text) for step, text in texts.items()},
        "steps": [step for step, _ in plan],
        "seconds": seconds,
        "failures": failures,
        "accuracy": errors,
        "restored": restored,
    }
    if tracer is not None:
        result["missing_targets"] = tracer.missing
        result["layers"] = tracer.self_times()
        result["root_s"] = tracer.root_s()
        result["per_layer"] = layer_metrics(tracer, snapshot, ctx, errors)
        tracer.write(trace_path, run_id=f"{workload}-seed{seed}")
    return result


def prepare(seed: int) -> dict:
    """Build (or load) the seed's campaign artifact on the serial path."""
    ctx = make_context("studies-warm", seed)
    return {"campaign": campaign_digest(ctx.campaign)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--trace", default=None, help="write spans to this path")
    args = parser.parse_args(argv)
    if args.prepare:
        result = prepare(args.seed)
    else:
        result = run_iteration(args.workload, args.seed, args.launched, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
