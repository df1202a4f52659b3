"""Tests for repro.obs: tracing, metrics, and summaries.

The observability layer's contracts: spans round-trip through the
checksummed JSONL sink, the metrics registry snapshots/deltas/merges
without double counting (a chunk's metrics reach the resilience
executor's report once, and only if its payload is accepted), and the
renderers stay dependency-free.
"""

import pytest

from repro.harness.resilience import (
    ChunkFailure,
    ChunkTask,
    CorruptResultError,
    run_chunks,
)
from repro.obs import (
    MetricsError,
    MetricsRegistry,
    Stopwatch,
    TraceError,
    TraceSink,
    Tracer,
    build_span_tree,
    configure_tracing,
    disable_tracing,
    get_registry,
    get_tracer,
    isolated_registry,
    merge_snapshots,
    read_trace,
    render_metrics,
    render_summary,
    render_tree,
    summarize_spans,
    validate_record,
)


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Each test gets a fresh registry and no trace sink."""
    with isolated_registry():
        disable_tracing()
        yield
        disable_tracing()


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        registry.increment("work.units", 3)
        registry.increment("work.units")
        assert registry.snapshot()["counters"] == {"work.units": 4}
        with pytest.raises(MetricsError):
            registry.increment("work.units", -1)

    def test_timer_keeps_sum_and_count(self):
        registry = MetricsRegistry()
        registry.observe("op.seconds", 1.0)
        registry.observe("op.seconds", 2.5)
        timer = registry.snapshot()["histograms"]["op.seconds"]
        assert timer == {"sum": pytest.approx(3.5), "count": 2}

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.increment("x")
        with pytest.raises(MetricsError):
            registry.observe("x", 0.1)
        registry.observe("y", 0.1)
        with pytest.raises(MetricsError):
            registry.increment("y")

    def test_delta_subtracts_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.increment("a", 5)
        registry.increment("still", 1)
        registry.observe("h", 0.5)
        registry.observe("idle", 0.5)
        mark = registry.snapshot()
        registry.increment("a", 2)
        registry.increment("b")
        registry.observe("h", 0.7)
        delta = registry.delta(mark)
        assert delta["counters"] == {"a": 2, "b": 1}
        assert list(delta["histograms"]) == ["h"]
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(0.7)

    def test_merge_adds_counters_and_timers(self):
        one = MetricsRegistry()
        one.increment("n", 2)
        one.observe("h", 0.2)
        two = MetricsRegistry()
        two.increment("n", 5)
        two.observe("h", 0.4)
        first = one.snapshot()
        merged = merge_snapshots(first, None, two.snapshot(), {})
        assert merged["counters"] == {"n": 7}
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["sum"] == pytest.approx(0.6)
        assert first == one.snapshot()  # the inputs are not merged into

    def test_merge_order_does_not_matter(self):
        one = MetricsRegistry()
        one.increment("n", 2)
        one.observe("h", 0.25)
        two = MetricsRegistry()
        two.increment("n", 3)
        two.increment("m")
        two.observe("h", 0.5)
        a, b = one.snapshot(), two.snapshot()
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_snapshot_shape_read_by_the_e2e_benchmark(self):
        """``benchmarks/e2e/workload.py`` reads ``counters[name]`` as a
        number and ``histograms[name]`` as exactly ``sum`` and ``count``,
        from a merge of chunk snapshots taken in isolated registries."""
        snapshots = []
        for seconds in (0.25, 0.5):
            with isolated_registry() as registry:
                get_registry().increment("simulator.batch.points", 3)
                get_registry().observe("simulator.simulate_batch.seconds", seconds)
                snapshots.append(registry.snapshot())
        merged = merge_snapshots(*snapshots)
        assert set(merged) == {"counters", "histograms"}
        points = merged["counters"]["simulator.batch.points"]
        assert isinstance(points, float) and points == 6.0
        timer = merged["histograms"]["simulator.simulate_batch.seconds"]
        assert set(timer) == {"sum", "count"}
        assert timer["sum"] == pytest.approx(0.75) and timer["count"] == 2
        assert get_registry().snapshot() == {"counters": {}, "histograms": {}}

    def test_isolated_registry_swaps_and_restores(self):
        get_registry().increment("outer")
        with isolated_registry() as inner:
            get_registry().increment("inner")
            assert get_registry() is inner
            assert inner.snapshot()["counters"] == {"inner": 1}
        assert get_registry().snapshot()["counters"] == {"outer": 1}


# -- tracing -----------------------------------------------------------------


class TestTracing:
    def test_round_trip_with_nesting_and_attrs(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceSink(path))
        with tracer.span("outer", benchmark="gzip") as outer:
            with tracer.span("inner") as inner:
                inner.set_attr("points", 10)
            tracer.event("milestone", step=1)
        assert outer.wall_s >= inner.wall_s >= 0
        tracer.set_sink(None)

        records = read_trace(path, strict=True)
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["attrs"] == {"points": 10}
        assert by_name["outer"]["attrs"] == {"benchmark": "gzip"}
        assert by_name["milestone"]["kind"] == "event"
        assert by_name["milestone"]["parent"] == by_name["outer"]["id"]

    def test_error_status_recorded_on_raise(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceSink(path))
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        tracer.set_sink(None)
        (record,) = read_trace(path, strict=True)
        assert record["status"] == "error"

    def test_measures_without_a_sink(self):
        tracer = Tracer()
        with tracer.span("unsunk") as span:
            pass
        assert span.wall_s >= 0

    def test_record_span_replays_worker_timings(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceSink(path))
        with tracer.span("driver"):
            tracer.record_span("worker.chunk", 1.5, cpu_s=1.2, chunk=3)
        tracer.set_sink(None)
        records = read_trace(path, strict=True)
        by_name = {r["name"]: r for r in records}
        worker = by_name["worker.chunk"]
        assert worker["wall_s"] == pytest.approx(1.5)
        assert worker["cpu_s"] == pytest.approx(1.2)
        assert worker["parent"] == by_name["driver"]["id"]
        assert worker["attrs"] == {"chunk": 3}

    def test_configure_and_disable_tracing_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = configure_tracing(path)
        assert tracer is get_tracer()
        with get_tracer().span("op.compute", tagged=True):
            pass
        disable_tracing()
        with get_tracer().span("op.unsunk"):
            pass
        (record,) = read_trace(path, strict=True)
        assert record["name"] == "op.compute"
        assert record["attrs"] == {"tagged": True}

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceSink(path))
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.set_sink(None)
        whole = path.read_bytes()
        path.write_bytes(whole[:-20])  # tear the last record mid-line
        # A torn tail is a normal crash artifact: tolerated even under
        # strict validation; everything before it is intact.
        assert [r["name"] for r in read_trace(path)] == ["a"]
        assert [r["name"] for r in read_trace(path, strict=True)] == ["a"]
        # But a torn line *followed by* more records is real corruption.
        with open(path, "ab") as handle:
            handle.write(b"\n")
        with pytest.raises(TraceError):
            read_trace(path, strict=True)

    def test_checksum_corruption_skipped_tolerantly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceSink(path))
        with tracer.span("keep"):
            pass
        with tracer.span("damage"):
            pass
        tracer.set_sink(None)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"ok"', '"OK"')  # body no longer matches sha
        path.write_text("\n".join(lines) + "\n")
        records = read_trace(path)
        assert [r["name"] for r in records] == ["keep"]
        with pytest.raises(TraceError):
            read_trace(path, strict=True)

    def test_validate_record_rejects_bad_schema(self):
        with pytest.raises(TraceError):
            validate_record({"kind": "span", "name": "x"})  # missing fields
        with pytest.raises(TraceError):
            validate_record({"kind": "nonsense"})

    def test_sink_write_after_close_raises(self, tmp_path):
        sink = TraceSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(TraceError):
            sink.write({"kind": "event", "name": "x", "id": "s1",
                        "parent": None, "t": 0.0, "attrs": {}})

    def test_span_tree_rebuild_and_self_time(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceSink(path))
        with tracer.span("root"):
            with tracer.span("child.slow"):
                pass
            with tracer.span("child.fast"):
                pass
        tracer.set_sink(None)
        (root,) = build_span_tree(read_trace(path, strict=True))
        assert root.name == "root"
        assert sorted(c.name for c in root.children) == [
            "child.fast", "child.slow",
        ]
        child_wall = sum(c.wall_s for c in root.children)
        assert root.self_wall_s() == pytest.approx(
            max(0.0, root.wall_s - child_wall)
        )

    def test_stopwatch_measures_both_clocks(self):
        with Stopwatch() as watch:
            sum(range(1000))
        assert watch.wall_s >= 0
        assert watch.cpu_s >= 0


# -- summaries ---------------------------------------------------------------


def _span(name, wall, cpu=0.0, sid="s1", parent=None):
    return {
        "kind": "span", "name": name, "id": sid, "parent": parent,
        "t0": 0.0, "wall_s": wall, "cpu_s": cpu, "status": "ok", "attrs": {},
    }


class TestSummaries:
    def test_p95_is_nearest_rank(self):
        records = [
            _span("op", wall, sid=f"s{i}")
            for i, wall in enumerate([float(w) for w in range(1, 101)])
        ]
        (stats,) = summarize_spans(records)
        assert stats.count == 100
        assert stats.p95_wall_s == 95.0
        assert stats.mean_wall_s == pytest.approx(50.5)

    def test_render_summary_orders_by_total_wall(self):
        records = [
            _span("slow", 2.0, sid="s1"),
            _span("fast", 0.5, sid="s2"),
        ]
        text = render_summary(records)
        assert text.index("slow") < text.index("fast")
        assert "2 spans, 0 events" in text

    def test_render_tree_marks_errors_and_elides(self):
        records = [_span("root", 10.0, sid="s0")]
        for i in range(8):
            records.append(_span(f"child{i}", 1.0, sid=f"s{i + 1}", parent="s0"))
        records[1]["status"] = "error"
        text = render_tree(records)
        assert "root" in text
        assert "[error]" in text
        assert "… 2 more" in text

    def test_render_metrics_handles_empty(self):
        assert "no metrics" in render_metrics(None)
        assert "no metrics" in render_metrics({})
        registry = MetricsRegistry()
        registry.increment("n", 3)
        registry.observe("h", 0.5)
        text = render_metrics(registry.snapshot())
        assert "n" in text and "h" in text


# -- resilience integration --------------------------------------------------


def _counting_chunk(values):
    """Picklable workload that records into the (isolated) registry."""
    registry = get_registry()
    registry.increment("test.units", len(values))
    registry.observe("test.chunk.seconds", 0.01)
    return [v * 2 for v in values]


def _counting_tasks(n_chunks=4, chunk_len=3):
    return [
        ChunkTask(
            index=i,
            fn=_counting_chunk,
            args=([i * 10 + j for j in range(chunk_len)],),
            size=chunk_len,
            meta=("chunk", i),
        )
        for i in range(n_chunks)
    ]


def _tracing_overhead_ratio(
    predictor, points, trace_dir, pairs=9, sweeps_per_sample=2
):
    """Median traced/plain time ratio of a frontier sweep over ``points``.

    Each of ``pairs`` pairs of samples times ``sweeps_per_sample`` plain
    and as many traced sweeps, alternating one plain and one traced
    sweep, so host load that drifts over the pair hits both modes alike
    and one scheduler hiccup is a small share of a sample.  The median of
    the per-pair ratios then discards pairs that a burst of noise hit on
    one side only.  Returns ``(ratio, plain_s, traced_s)``, the last two
    the median sample times.
    """
    import statistics
    import time as _time

    from repro.harness.sweep import ParetoFrontierReducer, run_sweep

    def sweep(trace_path=None):
        if trace_path is not None:
            configure_tracing(trace_path)
        t0 = _time.perf_counter()
        run_sweep(
            [predictor], points, [[ParetoFrontierReducer(bins=50)]],
            block_size=8192,
        )
        elapsed = _time.perf_counter() - t0
        if trace_path is not None:
            disable_tracing()
        return elapsed

    sweep()  # warm caches before the first timed pair
    plain, traced = [], []
    for pair in range(pairs):
        plain.append(0.0)
        traced.append(0.0)
        for _ in range(sweeps_per_sample):
            plain[-1] += sweep()
            traced[-1] += sweep(trace_dir / f"overhead-{pair}.jsonl")
    ratio = statistics.median(t / p for p, t in zip(plain, traced))
    return ratio, statistics.median(plain), statistics.median(traced)


class TestResilienceMetrics:
    def test_chunk_metrics_merge_into_report_not_driver(self):
        tasks = _counting_tasks(n_chunks=4, chunk_len=3)
        _, report = run_chunks(tasks)
        assert report.metrics["counters"]["test.units"] == 12
        assert report.metrics["histograms"]["test.chunk.seconds"]["count"] == 4
        # The driver registry stays clean: chunk metrics exist only in
        # the report (no double counting when the CLI merges both).
        assert "test.units" not in get_registry().snapshot()["counters"]

    def test_parallel_metrics_match_serial(self):
        tasks = _counting_tasks(n_chunks=6)
        _, serial = run_chunks(tasks)
        _, parallel = run_chunks(tasks, workers=2)
        assert parallel.metrics["counters"] == serial.metrics["counters"]

    def test_rejected_payload_metrics_never_reach_report(self):
        tasks = _counting_tasks(n_chunks=4, chunk_len=3)

        def validate(task, payload):
            if task.index == 2:
                raise CorruptResultError("truncated")

        with pytest.raises(ChunkFailure) as excinfo:
            run_chunks(tasks, validate=validate)
        # chunks 0 and 1 were accepted; chunk 2 counted its units in its
        # own registry, which is dropped with the rejected payload
        assert excinfo.value.report.metrics["counters"]["test.units"] == 6
        assert "test.units" not in get_registry().snapshot()["counters"]

    def test_sweep_report_carries_metrics(self, ctx):
        from repro.harness.sweep import ParetoFrontierReducer, run_sweep

        points = ctx.exploration_points()[:200]
        report = run_sweep(
            [ctx.predictor("gzip")], points, [[ParetoFrontierReducer(bins=50)]],
            block_size=64,
        )
        counters = report.metrics["counters"]
        assert counters["sweep.points"] == len(points)
        assert counters["sweep.blocks"] == -(-len(points) // 64)
        hist = report.metrics["histograms"]["sweep.predict_block.seconds"]
        assert hist["count"] == counters["sweep.blocks"]

    def test_overhead_within_budget_on_full_space(self, ctx, tmp_path):
        """Acceptance guard: tracing adds <= 10% to a full-space sweep.

        See :func:`_tracing_overhead_ratio` for how the comparison is
        kept robust to scheduler noise on a shared host.
        """
        import numpy as np

        from repro.designspace import PointSet, exploration_space

        space = exploration_space()
        points = PointSet(space, np.arange(len(space)))
        assert len(points) == 262_500
        ratio, plain, traced = _tracing_overhead_ratio(
            ctx.predictor("gzip"), points, tmp_path
        )
        assert ratio <= 1.10, (
            f"tracing overhead {ratio - 1:.1%} exceeds 10% "
            f"(median of paired samples: plain {plain:.3f}s, "
            f"traced {traced:.3f}s)"
        )

    def test_resilience_run_span_written_when_tracing(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        configure_tracing(trace_path)
        run_chunks(_counting_tasks(n_chunks=3))
        disable_tracing()
        records = read_trace(trace_path, strict=True)
        names = [r["name"] for r in records]
        assert names.count("resilience.chunk") == 3
        run_span = next(r for r in records if r["name"] == "resilience.run")
        assert run_span["attrs"]["completed"] == 3
        chunk = next(r for r in records if r["name"] == "resilience.chunk")
        assert chunk["parent"] == run_span["id"]
