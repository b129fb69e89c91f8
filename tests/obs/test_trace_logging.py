"""Tests for structured logging and its trace correlation."""

import io
import json
import logging
import re

import pytest

from repro.obs.logging import ConsoleFormatter, JsonFormatter, configure_logging
from repro.obs.trace import Tracer

KEYS = {"ts", "level", "logger", "trace_id", "span_id", "event", "attrs"}


class TestRecords:
    def test_record_shape(self, log_records) -> None:
        logging.getLogger("nnexus.test").info(
            "thing_happened", extra={"attrs": {"count": 3, "kind": "x"}}
        )
        assert len(log_records) == 1
        record = log_records[0]
        assert set(record) == KEYS
        assert record["level"] == "info"
        assert record["logger"] == "nnexus.test"
        assert record["event"] == "thing_happened"
        assert record["attrs"] == {"count": 3, "kind": "x"}
        assert record["trace_id"] == "" and record["span_id"] == ""
        assert isinstance(record["ts"], float)

    def test_level_filtering(self) -> None:
        stream = io.StringIO()
        configure_logging(level="warning", fmt="json", stream=stream)
        logger = logging.getLogger("nnexus.t")
        logger.debug("dropped")
        logger.info("dropped")
        logger.warning("kept")
        logger.error("kept")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [(r["event"], r["level"]) for r in lines] == [
            ("kept", "warning"),
            ("kept", "error"),
        ]
        assert logger.isEnabledFor(logging.ERROR)
        assert not logger.isEnabledFor(logging.INFO)

    def test_unknown_level_rejected(self) -> None:
        with pytest.raises(ValueError):
            configure_logging(level="loud", stream=io.StringIO())


class TestTraceCorrelation:
    def test_log_inside_span_carries_ids(self, log_records) -> None:
        tracer = Tracer(seed=21)
        logger = logging.getLogger("nnexus.t")
        with tracer.span("request") as span:
            logger.info("inside")
        logger.info("outside")
        inside, outside = log_records
        assert inside["trace_id"] == span.trace_id
        assert inside["span_id"] == span.span_id
        assert outside["trace_id"] == "" and outside["span_id"] == ""

    def test_log_becomes_span_event(self, log_records) -> None:
        tracer = Tracer(seed=22)
        logger = logging.getLogger("nnexus.t")
        with tracer.span("request") as span:
            logger.warning("cache_miss", extra={"attrs": {"key": 5}})
        record = tracer.get_trace(span.trace_id)["spans"][0]
        assert len(record["events"]) == 1
        assert record["events"][0]["name"] == "cache_miss"
        assert record["events"][0]["attrs"] == {"level": "warning", "logger": "nnexus.t"}

    def test_nested_span_wins(self, log_records) -> None:
        tracer = Tracer(seed=23)
        logger = logging.getLogger("nnexus.t")
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                logger.info("deep")
        assert log_records[0]["span_id"] == inner.span_id


class TestFormattersAndHandlers:
    def _record(self, **overrides) -> logging.LogRecord:
        fields = {
            "created": 1700000000.25,
            "levelname": "INFO",
            "levelno": logging.INFO,
            "name": "nnexus.server",
            "msg": "server.listening",
            "trace_id": "",
            "span_id": "",
            "attrs": {"port": 7070, "host": "127.0.0.1"},
        }
        fields.update(overrides)
        return logging.makeLogRecord(fields)

    def test_format_json_is_parseable(self) -> None:
        line = JsonFormatter().format(self._record())
        parsed = json.loads(line)
        assert list(parsed) == sorted(KEYS)
        assert parsed["event"] == "server.listening"
        assert parsed["level"] == "info"
        assert parsed["attrs"] == {"host": "127.0.0.1", "port": 7070}
        assert parsed["ts"] == 1700000000.25

    def test_format_console_contains_event_and_sorted_attrs(self) -> None:
        line = ConsoleFormatter().format(self._record())
        assert re.fullmatch(
            r"\d\d:\d\d:\d\d\.250 INFO    nnexus\.server server\.listening "
            r"host=127\.0\.0\.1 port=7070",
            line,
        ), line

    def test_format_console_appends_trace_id(self) -> None:
        line = ConsoleFormatter().format(
            self._record(
                levelname="WARNING",
                trace_id="ab" * 16,
                attrs={"spans": [{"name": "x"}]},
            )
        )
        assert line.endswith(
            f' WARNING nnexus.server server.listening spans=[{{"name": "x"}}] '
            f"[trace {'ab' * 16}]"
        )

    def test_console_and_json_handlers_write_stream(self) -> None:
        console_stream, json_stream = io.StringIO(), io.StringIO()
        logger = logging.getLogger("nnexus.t")
        configure_logging(fmt="console", stream=console_stream)
        logger.info("visible", extra={"attrs": {"n": 1}})
        configure_logging(fmt="json", stream=json_stream)
        logger.info("visible", extra={"attrs": {"n": 1}})
        assert console_stream.getvalue().endswith(" INFO    nnexus.t visible n=1\n")
        assert json.loads(json_stream.getvalue())["attrs"] == {"n": 1}

    def test_configure_logging_sets_the_nnexus_level(self) -> None:
        stream = io.StringIO()
        configure_logging(level="debug", fmt="json", stream=stream)
        logging.getLogger("nnexus.t").debug("visible")
        assert json.loads(stream.getvalue())["event"] == "visible"
        assert logging.getLogger("nnexus").level == logging.DEBUG

    def test_configure_logging_rejects_unknown_format(self) -> None:
        before = list(logging.getLogger("nnexus").handlers)
        with pytest.raises(ValueError):
            configure_logging(fmt="xml")
        assert logging.getLogger("nnexus").handlers == before
