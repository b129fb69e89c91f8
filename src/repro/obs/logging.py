"""Structured logging through the stdlib, correlated with the active trace.

Components log on stdlib loggers under ``nnexus`` (``nnexus.server``,
``nnexus.http``, ``nnexus.trace``) with the event name as the message
and its attributes in ``extra={"attrs": {...}}``.  This module adds the
two NNexus-specific parts:

* :class:`TraceFilter` stamps ``trace_id``/``span_id`` from the
  current :class:`~repro.obs.trace.Span` on each record (the ids are
  context-var based, so a record emitted anywhere inside a
  ``with tracer.span(...)`` block carries them without the call site
  passing anything) and adds the record to that span as an event
  (bounded per span), so a retrieved trace shows what was logged
  during it;
* :class:`ConsoleFormatter` (one human-readable line) and
  :class:`JsonFormatter` (one JSON object per line with the keys
  ``ts, level, logger, trace_id, span_id, event, attrs``).

:func:`configure_logging` installs one stderr (or ``stream``) handler
with the filter and the chosen formatter on the ``nnexus`` logger.  An
application that embeds the linker can attach its own handler instead:
add a :class:`TraceFilter` and either formatter to it.  Until one of
the two happens, the ``nnexus`` logger's ``NullHandler`` keeps records
off stderr (the stdlib's advice for libraries), so they reach only
handlers the application put on the root logger.
"""

from __future__ import annotations

import json
import logging
import time
from typing import IO, Any

from repro.obs.trace import current_span

__all__ = [
    "TraceFilter",
    "ConsoleFormatter",
    "JsonFormatter",
    "log_fields",
    "configure_logging",
]


class TraceFilter(logging.Filter):
    """Stamp the current span's ids on a record and log it as a span event."""

    def filter(self, record: logging.LogRecord) -> bool:
        if hasattr(record, "trace_id"):
            return True  # stamped by another handler's filter already
        record.trace_id = record.span_id = ""
        span = current_span()
        if span is not None and span.is_recording:
            record.trace_id = span.trace_id
            record.span_id = span.span_id
            span.add_event(
                record.getMessage(), level=record.levelname.lower(), logger=record.name
            )
        return True


def log_fields(record: logging.LogRecord) -> dict[str, Any]:
    """The flat record both formatters write."""
    return {
        "ts": record.created,
        "level": record.levelname.lower(),
        "logger": record.name,
        "trace_id": getattr(record, "trace_id", ""),
        "span_id": getattr(record, "span_id", ""),
        "event": record.getMessage(),
        "attrs": getattr(record, "attrs", {}),
    }


class JsonFormatter(logging.Formatter):
    """One JSON object per record (machine path)."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(log_fields(record), sort_keys=True, default=str)


class ConsoleFormatter(logging.Formatter):
    """``HH:MM:SS.mmm LEVEL logger event k=v ... [trace <id>]``."""

    def format(self, record: logging.LogRecord) -> str:
        fields = log_fields(record)
        ts = fields["ts"]
        parts = [
            f"{time.strftime('%H:%M:%S', time.localtime(ts))}.{int((ts % 1) * 1000):03d}",
            f"{fields['level'].upper():7}",
            fields["logger"],
            fields["event"],
        ]
        attrs = fields["attrs"]
        for key in sorted(attrs):
            value = attrs[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True, default=str)
            parts.append(f"{key}={value}")
        if fields["trace_id"]:
            parts.append(f"[trace {fields['trace_id']}]")
        return " ".join(parts)


_FORMATTERS = {"console": ConsoleFormatter, "json": JsonFormatter}

logging.getLogger("nnexus").addHandler(logging.NullHandler())

#: Names the one handler :func:`configure_logging` owns on ``nnexus``.
_HANDLER_NAME = "nnexus.configure_logging"


def configure_logging(
    level: str = "info", fmt: str = "console", stream: IO[str] | None = None
) -> None:
    """Log ``nnexus.*`` records at ``level`` and above to ``stream``
    (default stderr) in the ``console`` or ``json`` format.

    Running it again replaces the handler it installed before.
    """
    if fmt not in _FORMATTERS:
        raise ValueError(f"unknown log format {fmt!r} (expected 'console' or 'json')")
    root = logging.getLogger("nnexus")
    root.setLevel(level.upper())  # ValueError on an unknown level name
    for old in [h for h in root.handlers if h.name == _HANDLER_NAME]:
        root.removeHandler(old)
        old.close()  # leaves the stream open: the caller owns it
    handler = logging.StreamHandler(stream)
    handler.name = _HANDLER_NAME
    handler.addFilter(TraceFilter())
    handler.setFormatter(_FORMATTERS[fmt]())
    root.addHandler(handler)
