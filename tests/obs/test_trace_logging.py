"""Tests for structured logging and its trace correlation."""

import io
import json

import pytest

from repro.obs.logging import (
    LogManager,
    StructuredLogger,
    configure_logging,
    console_handler,
    format_console,
    format_json,
    get_logger,
    json_handler,
)
from repro.obs.trace import Tracer


@pytest.fixture()
def captured():
    records = []
    manager = LogManager(level="debug", handlers=[records.append])
    return records, manager


class TestRecords:
    def test_record_shape(self, captured) -> None:
        records, manager = captured
        get_logger("nnexus.test", manager).info("thing_happened", count=3, kind="x")
        assert len(records) == 1
        record = records[0]
        assert record["level"] == "info"
        assert record["logger"] == "nnexus.test"
        assert record["event"] == "thing_happened"
        assert record["attrs"] == {"count": 3, "kind": "x"}
        assert record["trace_id"] == "" and record["span_id"] == ""
        assert isinstance(record["ts"], float)

    def test_level_filtering(self, captured) -> None:
        records, manager = captured
        manager.set_level("warning")
        logger = get_logger("t", manager)
        logger.debug("dropped")
        logger.info("dropped")
        logger.warning("kept")
        logger.error("kept")
        assert [record["event"] for record in records] == ["kept", "kept"]
        assert logger.enabled_for("error")
        assert not logger.enabled_for("info")

    def test_unknown_level_rejected(self) -> None:
        with pytest.raises(ValueError):
            LogManager(level="loud")


class TestTraceCorrelation:
    def test_log_inside_span_carries_ids(self, captured) -> None:
        records, manager = captured
        tracer = Tracer(seed=21)
        logger = get_logger("t", manager)
        with tracer.span("request") as span:
            logger.info("inside")
        logger.info("outside")
        inside, outside = records
        assert inside["trace_id"] == span.trace_id
        assert inside["span_id"] == span.span_id
        assert outside["trace_id"] == "" and outside["span_id"] == ""

    def test_log_becomes_span_event(self, captured) -> None:
        records, manager = captured
        tracer = Tracer(seed=22)
        logger = get_logger("t", manager)
        with tracer.span("request") as span:
            logger.warning("cache_miss", key=5)
        record = tracer.get_trace(span.trace_id)["spans"][0]
        assert record["events"][0]["name"] == "cache_miss"
        assert record["events"][0]["attrs"]["level"] == "warning"

    def test_nested_span_wins(self, captured) -> None:
        records, manager = captured
        tracer = Tracer(seed=23)
        logger = get_logger("t", manager)
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                logger.info("deep")
        assert records[0]["span_id"] == inner.span_id


class TestFormattersAndHandlers:
    def _record(self, **overrides):
        record = {
            "ts": 1700000000.25,
            "level": "info",
            "logger": "nnexus.server",
            "trace_id": "",
            "span_id": "",
            "event": "server.listening",
            "attrs": {"port": 7070, "host": "127.0.0.1"},
        }
        record.update(overrides)
        return record

    def test_format_json_is_parseable(self) -> None:
        line = format_json(self._record())
        parsed = json.loads(line)
        assert parsed["event"] == "server.listening"
        assert parsed["attrs"]["port"] == 7070

    def test_format_console_contains_event_and_sorted_attrs(self) -> None:
        line = format_console(self._record())
        assert "server.listening" in line
        assert "INFO" in line
        assert line.index("host=127.0.0.1") < line.index("port=7070")
        assert "[trace" not in line

    def test_format_console_appends_trace_id(self) -> None:
        line = format_console(self._record(trace_id="ab" * 16))
        assert f"[trace {'ab' * 16}]" in line

    def test_console_and_json_handlers_write_stream(self) -> None:
        console_stream, json_stream = io.StringIO(), io.StringIO()
        console_handler(console_stream)(self._record())
        json_handler(json_stream)(self._record())
        assert "server.listening" in console_stream.getvalue()
        assert json.loads(json_stream.getvalue())["logger"] == "nnexus.server"

    def test_configure_logging_private_manager(self) -> None:
        stream = io.StringIO()
        manager = LogManager(level="info", handlers=[])
        configure_logging(level="debug", fmt="json", stream=stream, manager=manager)
        get_logger("t", manager).debug("visible")
        assert json.loads(stream.getvalue())["event"] == "visible"
        assert manager.level == "debug"

    def test_configure_logging_rejects_unknown_format(self) -> None:
        with pytest.raises(ValueError):
            configure_logging(fmt="xml", manager=LogManager(handlers=[]))

    def test_logger_front_end_is_light(self) -> None:
        manager = LogManager(handlers=[])
        logger = StructuredLogger("a.b", manager)
        assert logger.name == "a.b"
        assert manager.level == "info"
