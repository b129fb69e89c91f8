"""Structured logging, automatically correlated with the active trace.

Log records are flat dicts — ``ts``, ``level``, ``logger``,
``trace_id``, ``span_id``, ``event``, ``attrs`` — built at emit time.
The trace binding is context-var based: any record emitted while a
:class:`~repro.obs.trace.Span` is current (the code is inside a
``with tracer.span(...)`` block, including across the server handler's
whole request) carries that span's ids without the call site passing
anything.  Emitted records are also attached to the current span as
span events (bounded per span), so a retrieved trace shows what was
logged during it.

Two formatters ship: ``console`` (human-readable single line, the
default so CLI output stays pleasant) and ``json`` (one JSON object
per line for log shippers).  Handlers are plain callables taking the
record dict; :func:`console_handler` and :func:`json_handler` build
the two stream handlers.

The module-level :data:`DEFAULT_MANAGER` (level ``info``, console to
stderr) backs :func:`get_logger`; tests construct private
:class:`LogManager` instances with capture handlers instead of
monkeypatching globals.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Callable, IO

from repro.obs.trace import current_span

__all__ = [
    "LEVELS",
    "LogManager",
    "StructuredLogger",
    "get_logger",
    "configure_logging",
    "format_console",
    "format_json",
    "console_handler",
    "json_handler",
    "DEFAULT_MANAGER",
]

#: Level names in ascending severity; records below the manager's
#: threshold are dropped before being built.
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

Handler = Callable[[dict[str, Any]], None]


def _check_level(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(f"unknown log level {level!r} (expected one of {sorted(LEVELS)})")


# ---------------------------------------------------------------------------
# Formatters
# ---------------------------------------------------------------------------


def format_json(record: dict[str, Any]) -> str:
    """One JSON object per record (machine path)."""
    return json.dumps(record, sort_keys=True, default=str)


def format_console(record: dict[str, Any]) -> str:
    """Human-readable single line (default console rendering)."""
    stamp = time.strftime("%H:%M:%S", time.localtime(record["ts"]))
    millis = int((record["ts"] % 1) * 1000)
    parts = [
        f"{stamp}.{millis:03d}",
        f"{record['level'].upper():7}",
        record["logger"],
        record["event"],
    ]
    attrs = record.get("attrs") or {}
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, default=str)
        parts.append(f"{key}={value}")
    if record.get("trace_id"):
        parts.append(f"[trace {record['trace_id']}]")
    return " ".join(str(part) for part in parts)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def console_handler(stream: IO[str] | None = None) -> Handler:
    """Write console-formatted lines; ``None`` resolves ``sys.stderr``
    at emit time (so stream redirection/capture keeps working)."""

    def handle(record: dict[str, Any]) -> None:
        target = stream if stream is not None else sys.stderr
        # This handler is the terminal sink structured logging routes
        # to; the print() ban guards everything upstream of it.
        print(format_console(record), file=target)  # lint: disable=REP104

    return handle


def json_handler(stream: IO[str] | None = None) -> Handler:
    """Write JSON lines to a stream (``None`` -> current stderr)."""

    def handle(record: dict[str, Any]) -> None:
        target = stream if stream is not None else sys.stderr
        # Terminal sink, same sanction as console_handler above.
        print(format_json(record), file=target)  # lint: disable=REP104

    return handle


# ---------------------------------------------------------------------------
# Manager and loggers
# ---------------------------------------------------------------------------


class LogManager:
    """Shared level threshold + handler fan-out for a set of loggers."""

    def __init__(
        self,
        level: str = "info",
        handlers: list[Handler] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._level = _check_level(level)
        self._handlers: list[Handler] = list(handlers or [])
        self._clock = clock
        self._lock = threading.Lock()

    def set_level(self, level: str) -> None:
        self._level = _check_level(level)

    @property
    def level(self) -> str:
        for name, value in LEVELS.items():
            if value == self._level:
                return name
        return str(self._level)

    def add_handler(self, handler: Handler) -> None:
        with self._lock:
            self._handlers.append(handler)

    def remove_handler(self, handler: Handler) -> None:
        with self._lock:
            if handler in self._handlers:
                self._handlers.remove(handler)

    def set_handlers(self, handlers: list[Handler]) -> None:
        """Replace the handler fan-out."""
        with self._lock:
            self._handlers = list(handlers)

    def enabled_for(self, level: str) -> bool:
        return LEVELS.get(level, 0) >= self._level

    def emit(self, logger: str, level: str, event: str, attrs: dict[str, Any]) -> None:
        if LEVELS.get(level, 0) < self._level:
            return
        record: dict[str, Any] = {
            "ts": self._clock(),
            "level": level,
            "logger": logger,
            "trace_id": "",
            "span_id": "",
            "event": event,
            "attrs": attrs,
        }
        span = current_span()
        if span is not None and span.is_recording:
            record["trace_id"] = span.trace_id
            record["span_id"] = span.span_id
            # The log line doubles as a span event, so a retrieved
            # trace shows what was said during it (bounded per span).
            span.add_event(event, level=level, logger=logger)
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler(record)


class StructuredLogger:
    """Named front-end over a :class:`LogManager`."""

    __slots__ = ("name", "_manager")

    def __init__(self, name: str, manager: LogManager) -> None:
        self.name = name
        self._manager = manager

    def debug(self, event: str, **attrs: Any) -> None:
        self._manager.emit(self.name, "debug", event, attrs)

    def info(self, event: str, **attrs: Any) -> None:
        self._manager.emit(self.name, "info", event, attrs)

    def warning(self, event: str, **attrs: Any) -> None:
        self._manager.emit(self.name, "warning", event, attrs)

    def error(self, event: str, **attrs: Any) -> None:
        self._manager.emit(self.name, "error", event, attrs)

    def enabled_for(self, level: str) -> bool:
        return self._manager.enabled_for(level)


#: Process-wide default: INFO to stderr in the console format.  Module
#: loggers (server, gateway, batch) all hang off this, so one
#: :func:`configure_logging` call reshapes every component's output.
DEFAULT_MANAGER = LogManager(level="info", handlers=[console_handler()])


def get_logger(name: str, manager: LogManager | None = None) -> StructuredLogger:
    """A named logger over ``manager`` (default: the process manager)."""
    return StructuredLogger(name, manager if manager is not None else DEFAULT_MANAGER)


def configure_logging(
    level: str | None = None,
    fmt: str = "console",
    stream: IO[str] | None = None,
    manager: LogManager | None = None,
) -> LogManager:
    """Reshape a manager (default: the process-wide one) in one call.

    ``fmt`` picks the stream handler (``console`` or ``json``), which
    replaces the manager's handlers.
    """
    target = manager if manager is not None else DEFAULT_MANAGER
    if level is not None:
        target.set_level(level)
    if fmt not in ("console", "json"):
        raise ValueError(f"unknown log format {fmt!r} (expected 'console' or 'json')")
    target.set_handlers(
        [console_handler(stream) if fmt == "console" else json_handler(stream)]
    )
    return target
