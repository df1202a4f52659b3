"""Observability layer: tracing and metrics.

``repro.obs`` is the telemetry substrate under every other repro
package — it imports nothing from the rest of the codebase and needs
no third-party dependencies, so any layer (simulator hot loops,
sweep block folds, the resilience chunk executor) can instrument
itself unconditionally.  Two pillars:

- **tracing** (:mod:`repro.obs.tracing`) — nested spans, opened with
  ``get_tracer().span(name)``, with wall/CPU timings written as
  checksummed JSONL; always measures, emits only when a sink is
  configured (``--trace PATH`` / ``configure_tracing``);
- **metrics** (:mod:`repro.obs.metrics`) — a process-wide registry of
  counters and sum/count timers whose snapshots merge across the
  resilience process pool, once per completed chunk.

``repro trace summary|tree|validate`` reads the recorded traces; see
``docs/OBSERVABILITY.md`` for the file format and naming conventions.
"""

from .metrics import (
    MetricsError,
    MetricsRegistry,
    get_registry,
    isolated_registry,
    merge_snapshots,
)
from .summary import (
    SpanStats,
    render_metrics,
    render_summary,
    render_tree,
    summarize_spans,
)
from .tracing import (
    Span,
    SpanNode,
    Stopwatch,
    TraceError,
    TraceSink,
    Tracer,
    build_span_tree,
    configure_tracing,
    disable_tracing,
    get_tracer,
    read_trace,
    validate_record,
)

__all__ = [
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "SpanNode",
    "SpanStats",
    "Stopwatch",
    "TraceError",
    "TraceSink",
    "Tracer",
    "build_span_tree",
    "configure_tracing",
    "disable_tracing",
    "get_registry",
    "get_tracer",
    "isolated_registry",
    "merge_snapshots",
    "read_trace",
    "render_metrics",
    "render_summary",
    "render_tree",
    "summarize_spans",
    "validate_record",
]
