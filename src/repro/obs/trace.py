"""Request-scoped tracing: spans, propagation and slow-request forensics.

Aggregate metrics (:mod:`repro.obs.metrics`) answer "how slow is the
match stage *in general*"; this module answers "why was *this* link
request slow".  The design mirrors the metrics recorder pattern:

* :class:`NullTracer` (``NULL_TRACER``, the default everywhere) answers
  ``enabled = False`` and hands out a shared inert span, so an
  untraced deployment pays one attribute check per instrumentation
  point and allocates nothing;
* :class:`Tracer` records for real: every request becomes a tree of
  :class:`Span` context managers with monotonic-clock durations,
  status, attributes and a bounded per-span event list.

Ids are W3C trace-context shaped (32-hex trace id, 16-hex span id) and
are drawn from a **seeded** generator so tests get reproducible ids.
The current span travels in a :mod:`contextvars` context variable —
the log filter (:class:`repro.obs.logging.TraceFilter`) reads it to stamp
``trace_id``/``span_id`` on every line emitted inside a span, and
nested ``tracer.span(...)`` calls parent themselves automatically.

Finished spans land in an in-memory ring of traces bounded two ways
(``max_traces`` traces, ``MAX_SPANS_PER_TRACE`` spans each — overflow
is counted, not silently lost) and are streamed to any registered
sinks; :class:`JsonlExporter` is the file sink (one JSON object per
span per line, the unbounded firehose).  When a root span finishes
slower than ``slow_threshold`` seconds the whole trace is flushed once
as a structured ``slow_request`` log record and fed to the metrics
recorder (``nnexus_slow_requests_total``,
``nnexus_pipeline_stage_max_seconds{stage=...}``), so alerting works
without scraping traces.

Propagation across processes uses the W3C ``traceparent`` format
(``00-<trace_id>-<span_id>-01``): :func:`format_traceparent` /
:func:`parse_traceparent` are used by the wire protocol's optional
``traceparent`` field and the HTTP gateway's header of the same name.
"""

from __future__ import annotations

import json
import logging
import random
import re
import threading
from collections import OrderedDict
from pathlib import Path
from time import perf_counter, time
from typing import Any, Callable, Iterable

from contextvars import ContextVar

from repro.obs.metrics import NULL_RECORDER, NullRecorder

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlExporter",
    "current_span",
    "format_traceparent",
    "parse_traceparent",
    "parse_trace_limit",
    "MAX_SPAN_EVENTS",
    "MAX_SPANS_PER_TRACE",
]

#: Slow-request forensics records go out on this logger.
_LOG = logging.getLogger("nnexus.trace")

#: Per-span event bound; extra events are dropped and counted.
MAX_SPAN_EVENTS = 32

#: Per-trace span bound for the in-memory ring; sinks still see every
#: span, the ring just stops growing (overflow counted per trace).
MAX_SPANS_PER_TRACE = 512

#: The active span of the current execution context (thread / task).
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "nnexus_current_span", default=None
)

#: Estimated shell cost of one empty trace record in the ring (record
#: dict + spans list + ring slot + trace-id string).
_TRACE_RECORD_BASE = 420


def _value_cost(value: Any) -> int:
    """Cheap byte estimate of one JSON-shaped span value."""
    if isinstance(value, str):
        return 50 + len(value)
    if isinstance(value, bool):
        return 0  # shared singletons
    if isinstance(value, (int, float)):
        return 28
    if isinstance(value, dict):
        total = 64
        for key, inner in value.items():
            total += 30 + _value_cost(key) + _value_cost(inner)
        return total
    if isinstance(value, (list, tuple)):
        total = 56 + 8 * len(value)
        for inner in value:
            total += _value_cost(inner)
        return total
    return 48


def _span_cost(data: dict[str, Any]) -> int:
    """Byte estimate of one finished span dict in the ring.

    Key strings are interned literals shared across every span, so only
    the dict-slot shells and the per-span values are charged — keeping
    the estimate aligned with what the deduplicating deep sampler sees.
    """
    total = 64 + 8  # dict shell + spans-list slot
    for value in data.values():
        total += 30 + _value_cost(value)
    return total


def current_span() -> "Span | None":
    """The span the calling context is inside of, or ``None``."""
    return _CURRENT_SPAN.get()


# ---------------------------------------------------------------------------
# W3C trace-context propagation
# ---------------------------------------------------------------------------


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a W3C ``traceparent`` header value (sampled flag set)."""
    return f"00-{trace_id}-{span_id}-01"


#: ``version-trace_id-parent_id-flags``, lowercase hex; versions after
#: ``00`` may append fields, ``00`` itself has exactly four.
_TRACEPARENT = re.compile(r"([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}(-.*)?")


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a ``traceparent``, or ``None``.

    Malformed headers are treated as absent (a new trace is minted)
    rather than erroring — an old client that never heard of tracing
    must keep working unchanged.
    """
    if not header:
        return None
    match = _TRACEPARENT.fullmatch(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, rest = match.groups()
    if version == "ff" or (version == "00" and rest is not None):
        return None
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return trace_id, span_id


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def parse_trace_limit(raw: str | None) -> int:
    """The ``limit`` of a recent-traces request (default 20).

    Shared by the ``getRecentTraces`` wire method and
    ``GET /debug/traces``.  Raises :class:`ValueError` on a non-integer.
    """
    if raw is None:
        return 20
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad limit {raw!r}") from None


class NullSpan:
    """The inert span: every operation is a no-op, usable as a context
    manager.  A single shared instance (``NULL_SPAN``) serves every
    call site when tracing is disabled."""

    __slots__ = ()

    is_recording = False
    trace_id = ""
    span_id = ""
    parent_id = ""
    name = ""
    status = "ok"
    duration = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def set_status(self, status: str, detail: str = "") -> None:
        pass

    def finish(self) -> None:
        pass


#: Shared inert span, handed out by :data:`NULL_TRACER`.
NULL_SPAN = NullSpan()


class Span:
    """One timed operation in a trace tree.

    Entered as a context manager it becomes the *current* span of the
    execution context, so child ``tracer.span(...)`` calls and
    structured log records inside the block correlate automatically.
    Durations come from the monotonic clock; ``start_ts`` is wall-clock
    and only used for display in exports.
    """

    __slots__ = (
        "_tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "is_root",
        "remote_parent",
        "attributes",
        "events",
        "dropped_events",
        "status",
        "status_detail",
        "start_ts",
        "_start",
        "duration",
        "_token",
        "_finished",
    )

    is_recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str,
        is_root: bool,
        remote_parent: bool,
        attributes: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.is_root = is_root
        self.remote_parent = remote_parent
        self.attributes = attributes
        self.events: list[dict[str, Any]] = []
        self.dropped_events = 0
        self.status = "ok"
        self.status_detail = ""
        self.start_ts = time()
        self._start = perf_counter()
        self.duration = 0.0
        self._token = None
        self._finished = False

    # -- context management ---------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if exc_type is not None and self.status == "ok":
            self.set_status("error", f"{getattr(exc_type, '__name__', exc_type)}: {exc}")
        self.finish()
        return False

    # -- recording ------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attrs: Any) -> None:
        """Append a timestamped event; bounded by MAX_SPAN_EVENTS."""
        if len(self.events) >= MAX_SPAN_EVENTS:
            self.dropped_events += 1
            return
        event: dict[str, Any] = {
            "name": name,
            "offset_s": perf_counter() - self._start,
        }
        if attrs:
            event["attrs"] = attrs
        self.events.append(event)

    def set_status(self, status: str, detail: str = "") -> None:
        self.status = status
        self.status_detail = detail

    def finish(self) -> None:
        """Close the span (idempotent) and report it to the tracer."""
        if self._finished:
            return
        self._finished = True
        self.duration = perf_counter() - self._start
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self._tracer._finish(self)

    def traceparent(self) -> str:
        """This span's context as a W3C ``traceparent`` value."""
        return format_traceparent(self.trace_id, self.span_id)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable record of the (finished) span."""
        record: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ts": self.start_ts,
            "duration": self.duration,
            "status": self.status,
        }
        if self.status_detail:
            record["status_detail"] = self.status_detail
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.events:
            record["events"] = list(self.events)
        if self.dropped_events:
            record["dropped_events"] = self.dropped_events
        if self.remote_parent:
            record["remote_parent"] = True
        return record


# ---------------------------------------------------------------------------
# Tracers
# ---------------------------------------------------------------------------


class NullTracer:
    """The zero-overhead default tracer: every operation is a no-op.

    Instrumentation sites guard on ``tracer.enabled`` before doing any
    bookkeeping, exactly like the metrics ``recorder.enabled`` pattern,
    so the default configuration costs one attribute read per site.
    """

    enabled = False

    def span(self, name: str, parent: Span | None = None, **attributes: Any):
        return NULL_SPAN

    def start_trace(self, name: str, traceparent: str | None = None, **attributes: Any):
        return NULL_SPAN

    def record_span(
        self, name: str, duration: float, parent: Span | None = None, **attributes: Any
    ):
        return NULL_SPAN

    def active_trace_id(self) -> str:
        return ""

    def add_sink(self, sink: Callable[[dict[str, Any]], None]) -> None:
        pass

    def get_trace(self, trace_id: str) -> dict[str, Any] | None:
        return None

    def recent_traces(self, limit: int = 20) -> list[dict[str, Any]]:
        return []

    def estimated_bytes(self) -> int:
        return 0

    def memory_roots(self) -> tuple[object, ...]:
        return ()


#: Shared inert tracer — the default for every instrumented component.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records spans into a bounded in-memory ring of traces.

    Parameters
    ----------
    seed:
        Seed for the id generator.  Pass an int for reproducible
        trace/span ids (tests); ``None`` seeds from OS entropy (the
        production default for servers).
    max_traces:
        Ring bound: only this many traces (newest win) are retrievable
        through :meth:`get_trace` / :meth:`recent_traces`.
    slow_threshold:
        Seconds.  A *root* span finishing at or above this flushes the
        whole trace as a ``slow_request`` structured log record and
        feeds the slow-request metrics.  ``None`` disables.
    metrics:
        Metrics recorder receiving ``nnexus_slow_requests_total`` and
        the per-stage ``nnexus_pipeline_stage_max_seconds`` gauges.
    """

    enabled = True

    def __init__(
        self,
        seed: int | None = None,
        max_traces: int = 256,
        slow_threshold: float | None = None,
        metrics: NullRecorder | None = None,
    ) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self._rand = random.Random(seed)
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        self._max_traces = max_traces
        self.slow_threshold = slow_threshold
        self._metrics = metrics if metrics is not None else NULL_RECORDER
        self._sinks: list[Callable[[dict[str, Any]], None]] = []
        # Incremental byte estimate of the trace ring: per-trace costs
        # accumulate as spans land, leave with their trace on eviction.
        self._trace_bytes: dict[str, int] = {}
        self._est_bytes = 0

    # -- id generation ---------------------------------------------------
    def _new_id(self, bits: int) -> str:
        with self._lock:
            value = self._rand.getrandbits(bits)
            while value == 0:  # all-zero ids are invalid in W3C context
                value = self._rand.getrandbits(bits)
        return format(value, f"0{bits // 4}x")

    # -- span creation ---------------------------------------------------
    def span(self, name: str, parent: Span | None = None, **attributes: Any) -> Span:
        """A child of ``parent`` (default: the context's current span).

        With no parent anywhere, starts a new trace and the span is its
        root.  Use the returned span as a context manager to make it
        current for the block.
        """
        if parent is None:
            parent = _CURRENT_SPAN.get()
        if parent is not None and parent.is_recording:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            is_root = False
        else:
            trace_id = self._new_id(128)
            parent_id = ""
            is_root = True
        span = Span(
            self,
            name,
            trace_id=trace_id,
            span_id=self._new_id(64),
            parent_id=parent_id,
            is_root=is_root,
            remote_parent=False,
            attributes=dict(attributes),
        )
        self._register(trace_id)
        return span

    def start_trace(
        self, name: str, traceparent: str | None = None, **attributes: Any
    ) -> Span:
        """A root span, continuing ``traceparent`` when one is given.

        This is the entry point for request handlers: an inbound W3C
        context joins the caller's trace (the new span's parent is the
        remote span); a missing or malformed one mints a fresh trace.
        """
        context = parse_traceparent(traceparent)
        if context is not None:
            trace_id, parent_id = context
            remote = True
        else:
            trace_id = self._new_id(128)
            parent_id = ""
            remote = False
        span = Span(
            self,
            name,
            trace_id=trace_id,
            span_id=self._new_id(64),
            parent_id=parent_id,
            is_root=True,
            remote_parent=remote,
            attributes=dict(attributes),
        )
        self._register(trace_id)
        return span

    def record_span(
        self, name: str, duration: float, parent: Span | None = None, **attributes: Any
    ) -> Span:
        """Register an already-measured operation as a finished span.

        Used for stage timings accumulated across a loop (the linker's
        policy/steer stages), where wrapping each iteration in a live
        span would cost more than the work measured.
        """
        span = self.span(name, parent=parent, **attributes)
        span._start = perf_counter() - max(float(duration), 0.0)
        span.finish()
        return span

    def active_trace_id(self) -> str:
        """Trace id of the context's current span ("" when outside)."""
        span = _CURRENT_SPAN.get()
        if span is not None and span.is_recording:
            return span.trace_id
        return ""

    # -- ring maintenance ------------------------------------------------
    def _register(self, trace_id: str) -> None:
        with self._lock:
            if trace_id not in self._traces:
                self._traces[trace_id] = {
                    "trace_id": trace_id,
                    "complete": False,
                    "spans": [],
                    "dropped_spans": 0,
                }
                self._trace_bytes[trace_id] = _TRACE_RECORD_BASE
                self._est_bytes += _TRACE_RECORD_BASE
                while len(self._traces) > self._max_traces:
                    evicted_id, _ = self._traces.popitem(last=False)
                    self._est_bytes -= self._trace_bytes.pop(evicted_id, 0)

    def _finish(self, span: Span) -> None:
        data = span.as_dict()
        slow_trace: dict[str, Any] | None = None
        with self._lock:
            record = self._traces.get(span.trace_id)
            if record is not None:
                if len(record["spans"]) >= MAX_SPANS_PER_TRACE:
                    record["dropped_spans"] += 1
                else:
                    record["spans"].append(data)
                    cost = _span_cost(data)
                    self._trace_bytes[span.trace_id] = (
                        self._trace_bytes.get(span.trace_id, 0) + cost
                    )
                    self._est_bytes += cost
                if span.is_root:
                    record["complete"] = True
                    record["duration"] = max(
                        record.get("duration", 0.0), span.duration
                    )
                    if (
                        self.slow_threshold is not None
                        and span.duration >= self.slow_threshold
                        and not record.get("slow_flushed")
                    ):
                        record["slow_flushed"] = True
                        slow_trace = {
                            "trace_id": span.trace_id,
                            "root": data,
                            "spans": list(record["spans"]),
                        }
        for sink in self._sinks:
            sink(data)
        if slow_trace is not None:
            self._flush_slow(slow_trace)

    def _flush_slow(self, trace: dict[str, Any]) -> None:
        """One slow trace -> metrics + a structured forensics record."""
        rec = self._metrics
        if rec.enabled:
            rec.inc("nnexus_slow_requests_total")
            for span in trace["spans"]:
                name = span.get("name", "")
                if name.startswith("stage."):
                    stage = name[len("stage."):]
                    duration = float(span.get("duration", 0.0))
                    if duration > rec.gauge_value(
                        "nnexus_pipeline_stage_max_seconds", stage=stage
                    ):
                        rec.set_gauge(
                            "nnexus_pipeline_stage_max_seconds", duration, stage=stage
                        )
        root = trace["root"]
        _LOG.warning(
            "slow_request",
            extra={
                "attrs": {
                    "trace_id": trace["trace_id"],
                    "root": root["name"],
                    "duration_s": root["duration"],
                    "span_count": len(trace["spans"]),
                    "spans": trace["spans"],
                }
            },
        )

    # -- export and retrieval --------------------------------------------
    def add_sink(self, sink: Callable[[dict[str, Any]], None]) -> None:
        """Stream every finished span to ``sink(span_dict)``."""
        self._sinks.append(sink)

    def get_trace(self, trace_id: str) -> dict[str, Any] | None:
        """All spans known for a trace id (newest ring content), or None."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None
            return {
                "trace_id": record["trace_id"],
                "complete": record["complete"],
                "dropped_spans": record["dropped_spans"],
                "spans": list(record["spans"]),
            }

    def recent_traces(self, limit: int = 20) -> list[dict[str, Any]]:
        """The newest traces in the ring, most recent first."""
        if limit < 1:
            return []
        with self._lock:
            trace_ids = list(self._traces)[-limit:]
        traces = []
        for trace_id in reversed(trace_ids):
            trace = self.get_trace(trace_id)
            if trace is not None:
                traces.append(trace)
        return traces

    def trace_count(self) -> int:
        with self._lock:
            return len(self._traces)

    def estimated_bytes(self) -> int:
        """Incremental byte estimate of the in-memory trace ring."""
        with self._lock:
            return self._est_bytes

    def memory_roots(self) -> tuple[object, ...]:
        """Live ring structures for the memory accountant's deep sampler.

        The ring shell is snapshotted under the lock; the per-trace
        records inside are shared and may gain spans mid-walk, which
        the deep sampler tolerates.
        """
        with self._lock:
            return (dict(self._traces),)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class JsonlExporter:
    """Span sink writing one JSON object per line (append mode).

    The file is the unbounded counterpart to the in-memory ring: every
    finished span is written (and flushed) immediately, so a crash
    loses at most the span being serialized.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")

    def __call__(self, span: dict[str, Any]) -> None:
        line = json.dumps(span, sort_keys=True, default=str)
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path: str | Path) -> Iterable[dict[str, Any]]:
    """Parse a span JSONL file back into dicts (forensics tooling)."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
