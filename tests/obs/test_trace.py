"""Tests for the tracer core: spans, ids, bounds, export, forensics."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    MAX_SPAN_EVENTS,
    MAX_SPANS_PER_TRACE,
    NULL_SPAN,
    NULL_TRACER,
    JsonlExporter,
    Tracer,
    current_span,
    format_traceparent,
    parse_traceparent,
    read_jsonl,
)


class TestTraceparent:
    def test_round_trip(self) -> None:
        header = format_traceparent("ab" * 16, "cd" * 8)
        assert header == "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        assert parse_traceparent(header) == ("ab" * 16, "cd" * 8)

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-cdcdcdcdcdcdcdcd-01",
            "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",  # all-zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span id
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "zz-" + "ab" * 16 + "-" + "cd" * 8 + "-01",
            "00-" + "gg" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
            "00-0x" + "0" * 29 + "1-" + "cd" * 8 + "-01",  # int() prefix
            "00-" + "ab" * 14 + "a_bc-" + "cd" * 8 + "-01",  # int() separator
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-zz",  # non-hex flags
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01-extra",  # 00 has four fields
        ],
    )
    def test_malformed_is_treated_as_absent(self, header) -> None:
        assert parse_traceparent(header) is None

    def test_uppercase_and_whitespace_tolerated(self) -> None:
        header = "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  "
        assert parse_traceparent(header) == ("ab" * 16, "cd" * 8)


class TestSpans:
    def test_seeded_ids_are_deterministic(self) -> None:
        ids_a = [Tracer(seed=7).span("x").trace_id for _ in range(3)]
        ids_b = [Tracer(seed=7).span("x").trace_id for _ in range(3)]
        assert ids_a == ids_b
        assert all(len(trace_id) == 32 for trace_id in ids_a)

    def test_span_tree_parenting_via_context(self) -> None:
        tracer = Tracer(seed=1)
        with tracer.span("root") as root:
            assert current_span() is root
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                with tracer.span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
        assert current_span() is None
        trace = tracer.get_trace(root.trace_id)
        assert trace["complete"]
        assert [span["name"] for span in trace["spans"]] == [
            "grandchild",
            "child",
            "root",
        ]

    def test_explicit_parent_overrides_context(self) -> None:
        tracer = Tracer(seed=2)
        root = tracer.span("root")
        # Not entered as a context manager: simulate a worker thread
        # that received the parent explicitly.
        child = tracer.span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        child.finish()
        root.finish()

    def test_exception_sets_error_status(self) -> None:
        tracer = Tracer(seed=3)
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("bad input")
        assert span.status == "error"
        assert "bad input" in span.status_detail
        record = tracer.get_trace(span.trace_id)["spans"][0]
        assert record["status"] == "error"

    def test_attributes_and_events(self) -> None:
        tracer = Tracer(seed=4)
        with tracer.span("op", phase="init") as span:
            span.set_attribute("items", 3)
            span.add_event("milestone", step=1)
        record = tracer.get_trace(span.trace_id)["spans"][0]
        assert record["attributes"] == {"phase": "init", "items": 3}
        assert record["events"][0]["name"] == "milestone"
        assert record["events"][0]["attrs"] == {"step": 1}
        assert record["events"][0]["offset_s"] >= 0.0

    def test_event_bound(self) -> None:
        tracer = Tracer(seed=5)
        with tracer.span("chatty") as span:
            for index in range(MAX_SPAN_EVENTS + 10):
                span.add_event(f"event-{index}")
        record = tracer.get_trace(span.trace_id)["spans"][0]
        assert len(record["events"]) == MAX_SPAN_EVENTS
        assert record["dropped_events"] == 10

    def test_record_span_backdates_duration(self) -> None:
        tracer = Tracer(seed=6)
        span = tracer.record_span("stage.steer", 1.5, matches=4)
        record = tracer.get_trace(span.trace_id)["spans"][0]
        assert record["duration"] == pytest.approx(1.5, abs=0.05)
        assert record["attributes"] == {"matches": 4}

    def test_finish_is_idempotent(self) -> None:
        tracer = Tracer(seed=7)
        span = tracer.span("once")
        span.finish()
        duration = span.duration
        span.finish()
        assert span.duration == duration
        assert len(tracer.get_trace(span.trace_id)["spans"]) == 1


class TestRingBounds:
    def test_trace_ring_evicts_oldest(self) -> None:
        tracer = Tracer(seed=8, max_traces=3)
        roots = [tracer.span(f"req-{index}") for index in range(5)]
        for root in roots:
            root.finish()
        assert tracer.trace_count() == 3
        assert tracer.get_trace(roots[0].trace_id) is None
        assert tracer.get_trace(roots[4].trace_id) is not None
        recent = tracer.recent_traces()
        assert [trace["trace_id"] for trace in recent] == [
            roots[4].trace_id,
            roots[3].trace_id,
            roots[2].trace_id,
        ]

    def test_spans_per_trace_bound(self) -> None:
        tracer = Tracer(seed=9)
        with tracer.span("root") as root:
            for index in range(MAX_SPANS_PER_TRACE + 5):
                tracer.record_span(f"child-{index}", 0.0)
        trace = tracer.get_trace(root.trace_id)
        assert len(trace["spans"]) == MAX_SPANS_PER_TRACE
        # The root itself overflowed too: +1 for it.
        assert trace["dropped_spans"] == 6

    def test_recent_traces_limit(self) -> None:
        tracer = Tracer(seed=10)
        for index in range(5):
            tracer.span(f"r{index}").finish()
        assert len(tracer.recent_traces(limit=2)) == 2
        assert tracer.recent_traces(limit=0) == []


class TestSlowRequests:
    def test_slow_root_flushes_metrics_and_log(self, log_records) -> None:
        metrics = MetricsRegistry()
        tracer = Tracer(seed=11, slow_threshold=0.5, metrics=metrics)
        with tracer.span("server.linkEntry"):
            tracer.record_span("stage.match", 0.4)
            tracer.record_span("stage.steer", 0.9)
            current_span()._start -= 1.0  # backdate: the request "took" >=1s
        assert metrics.counter_value("nnexus_slow_requests_total") == 1.0
        assert metrics.gauge_value(
            "nnexus_pipeline_stage_max_seconds", stage="steer"
        ) == pytest.approx(0.9, abs=0.05)
        assert metrics.gauge_value(
            "nnexus_pipeline_stage_max_seconds", stage="match"
        ) == pytest.approx(0.4, abs=0.05)
        slow = [record for record in log_records if record["event"] == "slow_request"]
        assert len(slow) == 1
        assert slow[0]["level"] == "warning"
        assert slow[0]["logger"] == "nnexus.trace"
        names = {span["name"] for span in slow[0]["attrs"]["spans"]}
        assert {"server.linkEntry", "stage.match", "stage.steer"} <= names

    def test_fast_root_does_not_flush(self, log_records) -> None:
        metrics = MetricsRegistry()
        tracer = Tracer(seed=12, slow_threshold=10.0, metrics=metrics)
        with tracer.span("fast"):
            pass
        assert metrics.counter_value("nnexus_slow_requests_total") == 0.0
        assert not log_records

    def test_stage_max_gauge_keeps_maximum(self) -> None:
        metrics = MetricsRegistry()
        tracer = Tracer(seed=13, slow_threshold=0.0, metrics=metrics)
        for duration in (0.8, 0.3):
            with tracer.span("req"):
                tracer.record_span("stage.render", duration)
        assert metrics.gauge_value(
            "nnexus_pipeline_stage_max_seconds", stage="render"
        ) == pytest.approx(0.8, abs=0.05)


class TestExportAndNull:
    def test_jsonl_exporter_round_trip(self, tmp_path) -> None:
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(seed=14)
        with JsonlExporter(path) as exporter:
            tracer.add_sink(exporter)
            with tracer.span("a"):
                tracer.record_span("b", 0.01)
        spans = list(read_jsonl(path))
        assert [span["name"] for span in spans] == ["b", "a"]
        assert json.loads(path.read_text().splitlines()[0])["name"] == "b"

    def test_null_tracer_is_inert(self) -> None:
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.span("anything")
        assert span is NULL_SPAN
        with span as entered:
            assert entered is NULL_SPAN
            assert current_span() is None
        span.set_attribute("k", "v")
        span.add_event("e")
        span.finish()
        assert NULL_TRACER.start_trace("x", traceparent="00-...") is NULL_SPAN
        assert NULL_TRACER.get_trace("abc") is None
        assert NULL_TRACER.recent_traces() == []
        assert NULL_TRACER.active_trace_id() == ""

    def test_ids_never_zero_and_well_formed(self) -> None:
        tracer = Tracer(seed=15)
        for _ in range(50):
            span = tracer.span("x")
            assert len(span.trace_id) == 32 and set(span.trace_id) != {"0"}
            assert len(span.span_id) == 16 and set(span.span_id) != {"0"}
            int(span.trace_id, 16)
            int(span.span_id, 16)
            span.finish()

    def test_max_traces_validation(self) -> None:
        with pytest.raises(ValueError):
            Tracer(max_traces=0)
