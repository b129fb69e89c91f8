"""Observability: metrics, tracing, structured logging, benchmarks.

The linking pipeline, render cache and server stack all report into a
shared *metrics recorder* and a shared *tracer* from this package.
Both default to inert null implementations (zero hot-path overhead):

* pass a :class:`~repro.obs.metrics.MetricsRegistry` to
  ``NNexus(metrics=...)`` (or run with ``--metrics``) for per-stage
  pipeline timings, cache hit rates and server admission counts,
  scrapeable from the HTTP gateway's ``/metrics`` endpoint or the
  ``getMetrics`` wire method;
* pass a :class:`~repro.obs.trace.Tracer` to ``NNexus(tracer=...)``
  (or run with ``--trace``) for request-scoped span trees propagated
  client → server → pipeline via W3C ``traceparent``, retrievable
  through ``getTrace``/``getRecentTraces`` and ``GET /debug/traces``,
  with slow requests flushed as structured forensics records.

Structured logging (:mod:`repro.obs.logging`) correlates every log
line emitted inside a span with that span's trace automatically.
"""

from repro.obs.logging import (
    DEFAULT_MANAGER,
    LogManager,
    StructuredLogger,
    configure_logging,
    get_logger,
)
from repro.obs.memory import MemoryAccountant, deep_sizeof
from repro.obs.metrics import (
    NULL_RECORDER,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    NullRecorder,
    empty_snapshot,
    merge_series,
)
from repro.obs.profile import NULL_PROFILER, NullProfiler, SamplingProfiler
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    JsonlExporter,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    current_span,
    format_traceparent,
    parse_traceparent,
)

__all__ = [
    "MemoryAccountant",
    "deep_sizeof",
    "NULL_PROFILER",
    "NullProfiler",
    "SamplingProfiler",
    "NULL_RECORDER",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "NullRecorder",
    "empty_snapshot",
    "merge_series",
    "CONTENT_TYPE",
    "render_prometheus",
    "NULL_SPAN",
    "NULL_TRACER",
    "JsonlExporter",
    "NullSpan",
    "NullTracer",
    "Span",
    "Tracer",
    "current_span",
    "format_traceparent",
    "parse_traceparent",
    "DEFAULT_MANAGER",
    "LogManager",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
]
