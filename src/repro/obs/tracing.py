"""Nested spans, structured events, and the checksummed JSONL trace sink.

A :class:`Tracer` measures *always* and emits *only when configured*: a
``with tracer.span("sweep.predict_block")`` block costs two clock reads
when no sink is attached, so instrumentation stays in place permanently
and tracing is a runtime switch (``--trace PATH`` on the CLI, or
:func:`configure_tracing` from code).

The on-disk format is checksummed JSONL: one JSON object per line,
``{"body":{...},"sha":"<sha256(canonical-body)[:16]>"}``, written with a
single ``O_APPEND`` write per record so concurrent appenders cannot
interleave partial lines.  A crash leaves at most one truncated tail
line, which :func:`read_trace` tolerates; a corrupted checksum is
skipped with a warning rather than failing the load.  Records are not
fsynced one by one — traces are diagnostics, not recovery state — and
the sink fsyncs once when it closes.

Record bodies come in three kinds (see ``docs/OBSERVABILITY.md``):

- ``header`` — first line; format version, pid, clock epoch;
- ``span`` — a completed timed region: name, id, parent id, start
  offset ``t0`` (seconds since the tracer's epoch), ``wall_s``,
  ``cpu_s``, ``status`` (``ok``/``error``), free-form ``attrs``;
- ``event`` — a point-in-time occurrence (a degradation, a failure)
  with the enclosing span as parent.

Span ids are ``s1``, ``s2``, ... per process; parentage comes from a
stack, so spans nest lexically with the ``with`` blocks that create
them.  Worker processes do not trace directly — they time their work
with :class:`Stopwatch` and the driver replays it via
:meth:`Tracer.record_span`, keeping every trace file single-writer.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "SpanNode",
    "Stopwatch",
    "TraceError",
    "TraceSink",
    "Tracer",
    "build_span_tree",
    "configure_tracing",
    "disable_tracing",
    "get_tracer",
    "read_trace",
    "validate_record",
]

logger = logging.getLogger(__name__)

#: Current trace file format version (bumped on incompatible changes).
TRACE_VERSION = 1

_SHA_LEN = 16


class TraceError(ValueError):
    """Raised for malformed trace files or invalid trace records."""


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _sha(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:_SHA_LEN]


class Stopwatch:
    """Paired wall/CPU timer for code that cannot hold a span open.

    Wall time uses ``time.perf_counter`` (monotonic, high resolution);
    CPU time uses ``time.process_time``.  Usable as a context manager or
    via explicit :meth:`start`/:meth:`stop`; after stopping, ``wall_s``
    and ``cpu_s`` hold the elapsed values.  This is the sanctioned way
    to time harness code outside a span — analysis rule OBS001 flags
    bare ``time.perf_counter`` timing in ``repro.harness``.
    """

    __slots__ = ("wall_s", "cpu_s", "_wall0", "_cpu0")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def start(self) -> "Stopwatch":
        """Begin (or restart) timing."""
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def stop(self) -> "Stopwatch":
        """Capture elapsed wall/CPU since :meth:`start`."""
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        return self

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class Span:
    """One open timed region; finalized into a ``span`` record.

    Created by :meth:`Tracer.span`; user code only touches
    :meth:`set_attr` to enrich the record while the span is open.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "attrs", "t0",
        "wall_s", "cpu_s", "status", "_wall0", "_cpu0",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
        t0: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.t0 = t0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.status = "ok"
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def set_attr(self, key: str, value: Any) -> None:
        """Attach an attribute to the span while it is open."""
        self.attrs[key] = value

    def _finish(self, status: str) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        self.status = status

    def _body(self) -> dict:
        return {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t0": self.t0,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "attrs": self.attrs,
        }


class TraceSink:
    """Append-only checksummed JSONL writer for trace records.

    Each record is one line, ``{"body": ..., "sha": ...}``, written with
    a single ``os.write`` on an ``O_APPEND`` descriptor.  The first line
    is a ``header`` record binding the format version and pid.  Closing
    the sink is idempotent; writes after close are an error.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fd: Optional[int] = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        if os.fstat(self._fd).st_size == 0:
            self.write({
                "kind": "header",
                "version": TRACE_VERSION,
                "pid": os.getpid(),
            })

    def write(self, body: dict) -> None:
        """Append one record (checksum added here).

        The body is serialized once, canonically, and the line is the
        envelope built around that text, so it parses to the same
        ``{"body": ..., "sha": ...}`` object a full encode would give.
        """
        if self._fd is None:
            raise TraceError(f"trace sink {self.path} is closed")
        canonical = _canonical(body)
        line = f'{{"body":{canonical},"sha":"{_sha(canonical)}"}}\n'
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        """Flush and release the descriptor (safe to call twice)."""
        if self._fd is not None:
            os.fsync(self._fd)
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tracer:
    """Produces nested spans and events, emitting them to a sink.

    One tracer per process; get it with :func:`get_tracer`.  With no
    sink attached every operation still *measures* (so callers can read
    ``span.wall_s`` after the block) but nothing is written.
    """

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self._sink = sink
        self._stack: List[Span] = []
        self._next_id = 0
        self._epoch = time.perf_counter()

    @property
    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span, or None at top level."""
        return self._stack[-1].span_id if self._stack else None

    def set_sink(self, sink: Optional[TraceSink]) -> None:
        """Attach (or detach, with None) the output sink."""
        if self._sink is not None and sink is not self._sink:
            self._sink.close()
        self._sink = sink

    def _new_id(self) -> str:
        self._next_id += 1
        return f"s{self._next_id}"

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span around the ``with`` block.

        The span's status becomes ``error`` if the block raises; the
        exception propagates after the record is emitted.
        """
        record = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=self.current_span_id,
            attrs=dict(attrs),
            t0=time.perf_counter() - self._epoch,
        )
        self._stack.append(record)
        try:
            yield record
        except BaseException:
            record._finish("error")
            raise
        finally:
            if record.status == "ok":
                record._finish("ok")
            self._stack.pop()
            if self._sink is not None:
                self._sink.write(record._body())

    def record_span(
        self,
        name: str,
        wall_s: float,
        cpu_s: float = 0.0,
        **attrs,
    ) -> None:
        """Emit a span measured elsewhere (e.g. inside a pool worker).

        The record is parented to the currently open span and stamped
        ``t0`` as if it just ended, so worker-side durations appear in
        the driver's trace without a second writer on the file.
        """
        if self._sink is None:
            return
        now = time.perf_counter() - self._epoch
        self._sink.write({
            "kind": "span",
            "name": name,
            "id": self._new_id(),
            "parent": self.current_span_id,
            "t0": max(0.0, now - wall_s),
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "status": "ok",
            "attrs": dict(attrs),
        })

    def event(self, name: str, **attrs) -> None:
        """Emit a point-in-time event under the current span."""
        if self._sink is None:
            return
        self._sink.write({
            "kind": "event",
            "name": name,
            "id": self._new_id(),
            "parent": self.current_span_id,
            "t": time.perf_counter() - self._epoch,
            "attrs": dict(attrs),
        })


#: The process-wide tracer instrumented code goes through.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (inactive until configured)."""
    return _TRACER


def configure_tracing(path: str) -> Tracer:
    """Attach a JSONL sink at ``path`` to the process-wide tracer."""
    _TRACER.set_sink(TraceSink(path))
    return _TRACER


def disable_tracing() -> None:
    """Detach and close the process-wide tracer's sink, if any."""
    _TRACER.set_sink(None)


# -- reading ---------------------------------------------------------------

_SPAN_FIELDS = {
    "kind": str, "name": str, "id": str, "t0": (int, float),
    "wall_s": (int, float), "cpu_s": (int, float), "status": str,
    "attrs": dict,
}
_EVENT_FIELDS = {
    "kind": str, "name": str, "id": str, "t": (int, float), "attrs": dict,
}
_HEADER_FIELDS = {"kind": str, "version": int, "pid": int}


def validate_record(body: dict) -> None:
    """Raise :class:`TraceError` unless ``body`` matches the schema."""
    if not isinstance(body, dict):
        raise TraceError(f"record body must be an object, got {type(body)}")
    kind = body.get("kind")
    if kind == "span":
        required: Dict[str, Any] = _SPAN_FIELDS
    elif kind == "event":
        required = _EVENT_FIELDS
    elif kind == "header":
        required = _HEADER_FIELDS
    else:
        raise TraceError(f"unknown record kind {kind!r}")
    for field, types in required.items():
        if field not in body:
            raise TraceError(f"{kind} record missing field {field!r}")
        if not isinstance(body[field], types):
            raise TraceError(
                f"{kind} field {field!r} has type "
                f"{type(body[field]).__name__}"
            )
    if kind in ("span", "event") and not (
        body.get("parent") is None or isinstance(body["parent"], str)
    ):
        raise TraceError(f"{kind} field 'parent' must be a string or null")
    if kind == "span" and body["status"] not in ("ok", "error"):
        raise TraceError(f"span status must be ok/error, got {body['status']!r}")
    if kind == "header" and body["version"] != TRACE_VERSION:
        raise TraceError(
            f"unsupported trace version {body['version']} "
            f"(expected {TRACE_VERSION})"
        )


def read_trace(path: str, strict: bool = False) -> List[dict]:
    """Load a trace file, returning validated record bodies.

    A truncated final line (crash mid-write) is tolerated silently; a
    line with a bad checksum or schema is skipped with a warning, or
    raises :class:`TraceError` when ``strict`` is set.  The header
    record is validated but not returned.
    """
    records: List[dict] = []
    with io.open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
        trailing_newline = True
    else:
        trailing_newline = False
    for index, line in enumerate(lines):
        last = index == len(lines) - 1
        try:
            envelope = json.loads(line)
        except json.JSONDecodeError:
            if last and not trailing_newline:
                break  # torn tail write; everything before it is intact
            if strict:
                raise TraceError(f"{path}:{index + 1}: unparseable line")
            logger.warning("%s:%d: skipping unparseable line", path, index + 1)
            continue
        try:
            if not isinstance(envelope, dict) or "body" not in envelope:
                raise TraceError("missing body")
            body = envelope["body"]
            if envelope.get("sha") != _sha(_canonical(body)):
                raise TraceError("checksum mismatch")
            validate_record(body)
        except TraceError as exc:
            if strict:
                raise TraceError(f"{path}:{index + 1}: {exc}") from exc
            logger.warning("%s:%d: skipping record: %s", path, index + 1, exc)
            continue
        if body["kind"] == "header":
            if index != 0:
                message = f"{path}:{index + 1}: header not on first line"
                if strict:
                    raise TraceError(message)
                logger.warning("%s", message)
            continue
        records.append(body)
    return records


class SpanNode:
    """One span in a rebuilt trace tree, with its children attached."""

    __slots__ = ("body", "children")

    def __init__(self, body: dict) -> None:
        self.body = body
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        """Span name."""
        return self.body["name"]

    @property
    def wall_s(self) -> float:
        """Span wall-clock duration in seconds."""
        return self.body["wall_s"]

    def self_wall_s(self) -> float:
        """Wall time not accounted for by child spans (floored at 0)."""
        return max(
            0.0,
            self.wall_s
            - sum(c.wall_s for c in self.children if c.body["kind"] == "span"),
        )


def build_span_tree(records: List[dict]) -> List[SpanNode]:
    """Rebuild the span/event forest from flat records.

    Returns the root nodes (spans and events with no parent, or whose
    parent never produced a record — e.g. a still-open root span when
    the process died).  Children are ordered by start time.
    """
    nodes = {body["id"]: SpanNode(body) for body in records}
    roots: List[SpanNode] = []
    for body in records:
        node = nodes[body["id"]]
        parent = body.get("parent")
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)

    def start(node: SpanNode) -> float:
        return node.body.get("t0", node.body.get("t", 0.0))

    for node in nodes.values():
        node.children.sort(key=start)
    roots.sort(key=start)
    return roots
