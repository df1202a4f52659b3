"""Per-layer timing of a ``repro`` run, measured from outside the package.

:class:`LayerTracer` wraps the public entry points of each module with a
timer.  A wrapped function is patched at every module attribute that
holds the same object (so ``repro.experiments.fit_ols`` is caught as well
as ``repro.regression.fit.fit_ols``); methods are patched on their class.
Every call records one span — name, layer, start, end, parent — in
memory.  :meth:`LayerTracer.uninstall` puts every original back.

A layer's self time is the duration of its spans minus the part covered
by their child spans, so the self times of all layers add up to the
duration of the root span.  Nothing called once per instruction (or once
per design point inside a vectorised path) is wrapped.

Wrappers only time calls made in the process that installed them:
pool workers forked from it call straight through, and their work is
read from ``RunReport.metrics`` instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

#: (layer, module, attribute).  ``attribute`` may be ``Class.method``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.trace", "repro.workloads.generator", "generate_trace"),
    ("simulator.glue", "repro.simulator.simulator", "Simulator.simulate"),
    ("simulator.glue", "repro.simulator.simulator", "Simulator.simulate_batch"),
    ("simulator.kernel_scalar", "repro.simulator.pipeline", "run_pipeline"),
    ("simulator.kernel_batch", "repro.simulator.batch", "run_pipeline_batch"),
    ("power.evaluate", "repro.power.powertimer", "PowerModel.evaluate"),
    ("regression.fit", "repro.regression.fit", "fit_ols"),
    ("regression.predict", "repro.regression.fit", "FittedModel.predict"),
    ("regression.validate", "repro.regression.validation", "validate_model"),
    ("designspace.encode", "repro.designspace.encoding", "DesignEncoder.encode"),
    ("designspace.sample", "repro.designspace.sampling", "sample_uar"),
    ("designspace.sample", "repro.designspace.sampling", "sample_stratified"),
    ("designspace.sample", "repro.designspace.sampling", "sample_halton"),
    ("sweep.run", "repro.harness.sweep", "run_sweep"),
    ("campaign.run", "repro.harness.campaign", "run_campaign"),
    ("campaign.fit_models", "repro.harness.campaign", "fit_campaign_models"),
    ("artifacts.cache", "repro.harness.artifacts", "cached_campaign"),
    ("artifacts.save", "repro.harness.artifacts", "save_campaign"),
    ("artifacts.load", "repro.harness.artifacts", "load_campaign"),
    ("resilience.run_chunks", "repro.harness.resilience", "run_chunks"),
    ("studies.context", "repro.studies.common", "StudyContext.exploration_points"),
    ("studies.context", "repro.studies.common", "StudyContext.per_depth_points"),
    ("studies.context", "repro.studies.common", "StudyContext.predict_points"),
    ("studies.context", "repro.studies.common", "StudyContext.predict_exploration"),
    ("studies.context", "repro.studies.common", "StudyContext.predict_per_depth"),
    ("studies.context", "repro.studies.common", "StudyContext.sweep_exploration"),
    ("studies.context", "repro.studies.common", "StudyContext.sweep_per_depth"),
    ("studies.context", "repro.studies.common", "StudyContext.simulate"),
    ("studies.context", "repro.studies.common", "StudyContext.simulate_many"),
    ("studies.context", "repro.studies.common", "StudyContext.trace"),
    ("studies.pareto", "repro.studies.pareto", "characterize"),
    ("studies.pareto", "repro.studies.pareto", "frontier"),
    ("studies.pareto", "repro.studies.pareto", "efficiency_optimum"),
    ("studies.pareto", "repro.studies.pareto", "table2"),
    ("studies.pareto", "repro.studies.pareto", "validate_frontier"),
    ("studies.pareto", "repro.studies.pareto", "resource_trend"),
    ("studies.depth", "repro.studies.depth", "original_analysis"),
    ("studies.depth", "repro.studies.depth", "enhanced_analysis"),
    ("studies.depth", "repro.studies.depth", "suite_depth_summary"),
    ("studies.depth", "repro.studies.depth", "top_percentile_cache_distribution"),
    ("studies.depth", "repro.studies.depth", "validate_depth_study"),
    ("studies.heterogeneity", "repro.studies.heterogeneity", "benchmark_optima"),
    ("studies.heterogeneity", "repro.studies.heterogeneity", "cluster_architectures"),
    (
        "studies.heterogeneity",
        "repro.studies.heterogeneity",
        "annotate_cluster_metrics",
    ),
    ("studies.heterogeneity", "repro.studies.heterogeneity", "table4"),
    ("studies.heterogeneity", "repro.studies.heterogeneity", "k_sweep"),
    ("studies.heterogeneity", "repro.studies.heterogeneity", "delay_power_map"),
    ("studies.search", "repro.studies.search", "steepest_descent"),
    ("studies.search", "repro.studies.search", "genetic_search"),
    ("studies.search", "repro.studies.search", "compare_search_strategies"),
    ("studies.robustness", "repro.studies.robustness", "bootstrap_models"),
    ("studies.robustness", "repro.studies.robustness", "optimum_stability"),
    ("studies.robustness", "repro.studies.robustness", "depth_optimum_stability"),
    ("studies.scheduling", "repro.studies.scheduling", "schedule"),
    ("studies.scheduling", "repro.studies.scheduling", "compare_cmp_designs"),
    ("cluster.kmeans", "repro.cluster.kmeans", "kmeans"),
    ("baselines.ann", "repro.baselines.ann", "fit_ann"),
    ("baselines.interval", "repro.baselines.interval", "interval_model_for"),
    ("render.text", "repro.harness.tables", "render_table"),
    ("render.text", "repro.harness.tables", "render_design_point"),
    ("render.text", "repro.harness.figures", "render_series"),
    ("render.text", "repro.harness.figures", "render_boxplot"),
    ("render.text", "repro.harness.figures", "render_boxplot_panel"),
    ("render.text", "repro.harness.figures", "ascii_scatter"),
    ("experiments.glue", "repro.experiments", "run_experiment"),
)

#: Every layer a self time is reported for, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: The layer of the root span: code of the benchmark and the experiment
#: runners themselves, outside every wrapped entry point.
ROOT_LAYER = "experiments.glue"

#: Span fields, in the order they are stored and written.
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "n")


def _resolve(module: str, attribute: str):
    """(owner, name, original) for one target; methods resolve to a class."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _size(result) -> Optional[int]:
    """Rows of an array result or items of a list result, else None."""
    shape = getattr(result, "shape", None)
    if shape:
        return int(shape[0])
    if isinstance(result, list):
        return len(result)
    return None


class LayerTracer:
    """Install timers on :data:`TARGETS`, collect spans, restore originals.

    ``spans`` holds one tuple per finished call, laid out as
    :data:`SPAN_FIELDS`; ``parent`` is the index of the enclosing span
    (-1 at top level) and ``n`` the size of the result where it has one
    (rows predicted or encoded, results of a batch simulation).

    ``chunk_wall_s`` sums the worker-side wall time of every chunk the
    resilient executor completed, read off the ``resilience.chunk`` spans
    it replays into the process tracer.

    ``missing`` lists the targets the package no longer has (a function
    removed or renamed by a refactor); they are skipped, so their layer
    reads zero instead of the traced run failing.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.chunk_wall_s = 0.0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Patch every target at its definition and at every alias."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[int, object] = {}
        for layer, module, attribute in TARGETS:
            try:
                owner, name, original = _resolve(module, attribute)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{attribute}")
                continue
            wrapper = self._wrap(original, attribute, layer)
            self._patch(owner, name, original, wrapper)
            wrappers[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, value, entry[1])
        from repro.obs.tracing import Tracer

        self._patch(
            Tracer,
            "record_span",
            Tracer.__dict__["record_span"],
            self._chunk_hook(Tracer.__dict__["record_span"]),
        )

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def patched(self) -> List[Tuple[object, str, object]]:
        """The (owner, attribute, original) triples currently patched."""
        return list(self._patched)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, original, name: str, layer: str):
        spans = self.spans
        stack = self._stack
        pid = self._pid
        clock = time.perf_counter
        getpid = os.getpid

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if getpid() != pid:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, _size(result))

        return timed

    def _chunk_hook(self, original):
        tracer = self

        @functools.wraps(original)
        def record_span(self, name, wall_s, *args, **kwargs):
            if name == "resilience.chunk" and os.getpid() == tracer._pid:
                tracer.chunk_wall_s += wall_s
            return original(self, name, wall_s, *args, **kwargs)

        return record_span

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` inside the root span of the timed region."""
        return self._wrap(fn, "root", ROOT_LAYER)(*args, **kwargs)

    # -- analysis --------------------------------------------------------------

    def root_s(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(s[3] - s[2] for s in self.spans if s[4] == -1)

    def self_times(self) -> Dict[str, float]:
        """Self time per layer; every layer of :data:`LAYERS` is present."""
        return self_times(self.spans)

    def counts(self) -> Dict[str, Tuple[int, int, float]]:
        """(calls, summed result size, summed duration) per span name."""
        table: Dict[str, Tuple[int, int, float]] = {}
        for name, _, start, end, _, n in self.spans:
            calls, total, seconds = table.get(name, (0, 0, 0.0))
            table[name] = (calls + 1, total + (n or 0), seconds + end - start)
        return table

    def write(self, path: str, run_id: str) -> None:
        """Write the spans as JSONL, one object per span."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                record = dict(zip(SPAN_FIELDS, span))
                record["id"] = index
                record["run"] = run_id
                handle.write(json.dumps(record) + "\n")


def self_times(spans: List[tuple]) -> Dict[str, float]:
    """Self time per layer from finished spans laid out as :data:`SPAN_FIELDS`.

    ``parent`` fields index into ``spans``.  A span's self time is its
    duration minus the union of its direct children's intervals, clipped
    to the span, so no interval is counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[4] >= 0:
            children.setdefault(span[4], []).append((span[2], span[3]))
    totals = {layer: 0.0 for layer in LAYERS}
    for index, (_, layer, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[layer] += (end - start) - covered
    return totals
