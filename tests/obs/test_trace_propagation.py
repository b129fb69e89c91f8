"""End-to-end trace propagation: client -> server -> linker -> gateway.

The acceptance scenario for the tracing subsystem: one request produces
ONE retrievable trace holding the client's attempt spans, the server's
root span and every pipeline stage span, with structured log records
emitted during handling carrying the trace id.  Wire compatibility is
asserted both ways — old clients without ``traceparent`` still get
valid responses (plus a server-minted trace id), and inbound W3C
headers are continued, not replaced.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.batch import BatchLinker
from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.logging import DEFAULT_MANAGER
from repro.obs.trace import Tracer, format_traceparent, parse_traceparent
from repro.ontology.msc import build_small_msc
from repro.server import protocol
from repro.server.client import NNexusClient, RemoteError
from repro.server.faults import FaultInjector
from repro.server.http_gateway import serve_http
from repro.server.resilience import RetryPolicy
from repro.server.server import serve_forever

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def make_linker(tracer=None):
    linker = NNexus(scheme=build_small_msc(), tracer=tracer)
    linker.add_objects(sample_corpus())
    return linker


@pytest.fixture()
def tracer():
    return Tracer(seed=20090612)


@pytest.fixture()
def faults():
    return FaultInjector()


@pytest.fixture()
def server(tracer, faults):
    instance = serve_forever(make_linker(tracer), faults=faults)
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture()
def capture_logs():
    """Capture DEFAULT_MANAGER records at debug level, then restore."""
    records = []
    DEFAULT_MANAGER.add_handler(records.append)
    DEFAULT_MANAGER.set_level("debug")
    yield records
    DEFAULT_MANAGER.set_level("info")
    DEFAULT_MANAGER.remove_handler(records.append)


class TestClientRetryTracing:
    def test_retries_are_attempt_spans_in_one_trace(self, server, faults, tracer) -> None:
        faults.force_error("overloaded", on_request=1)
        with NNexusClient(*server.address, retry=FAST_RETRY, tracer=tracer) as client:
            assert client.ping()
        assert faults.requests_seen == 2
        # The retried call is ONE trace: a client.ping root plus one
        # client.attempt span per try (first errored, second clean).
        traces = [
            trace
            for trace in tracer.recent_traces()
            if any(span["name"] == "client.ping" for span in trace["spans"])
        ]
        assert len(traces) == 1
        spans = traces[0]["spans"]
        attempts = sorted(
            (span for span in spans if span["name"] == "client.attempt"),
            key=lambda span: span["attributes"]["attempt"],
        )
        assert [span["attributes"]["attempt"] for span in attempts] == [1, 2]
        assert attempts[0]["status"] == "error"
        assert attempts[1]["status"] == "ok"
        root = next(span for span in spans if span["name"] == "client.ping")
        assert all(span["parent_id"] == root["span_id"] for span in attempts)

    def test_attempt_injects_fresh_traceparent_per_try(self, server, faults, tracer) -> None:
        faults.force_error("overloaded", on_request=1)
        with NNexusClient(*server.address, retry=FAST_RETRY, tracer=tracer) as client:
            client.describe()
        trace = tracer.recent_traces()[0]
        attempts = [
            span for span in trace["spans"] if span["name"] == "client.attempt"
        ]
        # The server's root span (shared tracer) parents to the attempt
        # that reached it — attempt 2, since attempt 1 was shed.
        server_spans = [
            span for span in trace["spans"] if span["name"] == "server.describe"
        ]
        assert len(server_spans) == 1
        succeeded = next(
            span for span in attempts if span["attributes"]["attempt"] == 2
        )
        assert server_spans[0]["parent_id"] == succeeded["span_id"]
        assert server_spans[0]["remote_parent"] is True


class TestEndToEndTrace:
    def test_link_entry_yields_one_full_trace(self, server, tracer, capture_logs) -> None:
        with NNexusClient(*server.address, tracer=tracer) as client:
            body, links = client.link_entry(
                "every planar graph is sparse", classes=["05C10"]
            )
        assert links and links[0]["phrase"] == "planar graph"

        roots = [
            trace
            for trace in tracer.recent_traces()
            if any(span["name"] == "client.linkEntry" for span in trace["spans"])
        ]
        assert len(roots) == 1
        trace = roots[0]
        names = [span["name"] for span in trace["spans"]]
        # Client call + attempt, server root, linker wrapper and all
        # five pipeline stages — one trace end to end.
        for expected in (
            "client.linkEntry",
            "client.attempt",
            "server.linkEntry",
            "linker.link_text",
            "stage.tokenize",
            "stage.match",
            "stage.policy",
            "stage.steer",
            "stage.render",
        ):
            assert expected in names, f"missing span {expected!r} in {names}"

        # The same trace is retrievable over the wire.
        with NNexusClient(*server.address) as plain:
            fetched = plain.get_trace(trace["trace_id"])
        assert fetched["trace_id"] == trace["trace_id"]
        assert {span["name"] for span in fetched["spans"]} >= set(names)

        # Structured log records emitted during handling carry the id.
        handled = [
            record for record in capture_logs if record["event"] == "server.request"
        ]
        assert any(record["trace_id"] == trace["trace_id"] for record in handled)
        assert all(record["trace_id"] for record in handled)

    def test_untraced_client_gets_server_minted_trace_id(self, server) -> None:
        with NNexusClient(*server.address) as client:
            response = client._call(protocol.Request("ping"))
        trace_id = response.fields.get("traceid", "")
        assert len(trace_id) == 32
        int(trace_id, 16)
        # And the request without a traceparent field still round-trips.
        assert response.ok

    def test_error_response_carries_trace_id(self, server, tracer) -> None:
        with NNexusClient(*server.address, retry=RetryPolicy.none()) as client:
            with pytest.raises(RemoteError):
                client._call(
                    protocol.Request("linkEntry", fields={"format": "nope"})
                )
        # The failed request's trace exists and its root is errored.
        traces = tracer.recent_traces()
        errored = [
            span
            for trace in traces
            for span in trace["spans"]
            if span["name"] == "server.linkEntry" and span["status"] == "error"
        ]
        assert errored

    def test_get_recent_traces_wire_method(self, server, tracer) -> None:
        with NNexusClient(*server.address) as client:
            client.ping()
            recent = client.get_recent_traces(limit=5)
        assert recent
        assert all("spans" in trace for trace in recent)

    def test_get_trace_requires_trace_id(self, server) -> None:
        with NNexusClient(*server.address, retry=RetryPolicy.none()) as client:
            with pytest.raises(RemoteError):
                client._call(protocol.Request("getTrace"))
            with pytest.raises(RemoteError):
                client.get_trace("deadbeef" * 4)  # unknown id

    def test_trace_retrieval_bypasses_draining(self, server, tracer) -> None:
        with NNexusClient(*server.address, retry=RetryPolicy.none()) as client:
            client.ping()
            server._draining.set()
            try:
                with pytest.raises(RemoteError):
                    client.ping()
                assert client.get_recent_traces()
            finally:
                server._draining.clear()


class TestGatewayPropagation:
    @pytest.fixture()
    def gateway(self, tracer):
        instance = serve_http(make_linker(tracer))
        yield instance
        instance.shutdown()
        instance.server_close()

    def _request(self, gateway, path, headers=None, payload=None):
        host, port = gateway.address
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=data,
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST" if data is not None else "GET",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(response.read())

    def test_inbound_traceparent_is_continued(self, gateway) -> None:
        inbound_trace = "ab" * 16
        header = format_traceparent(inbound_trace, "cd" * 8)
        status, headers, payload = self._request(
            gateway,
            "/link",
            headers={"traceparent": header},
            payload={"text": "every planar graph is sparse", "classes": ["05C10"]},
        )
        assert status == 200 and payload["linkcount"] == 1
        assert headers["x-request-id"] == inbound_trace
        parsed = parse_traceparent(headers["traceparent"])
        assert parsed is not None and parsed[0] == inbound_trace

    def test_no_traceparent_mints_request_id(self, gateway) -> None:
        __, headers, __ = self._request(gateway, "/describe")
        trace_id = headers["x-request-id"]
        assert len(trace_id) == 32
        int(trace_id, 16)

    def test_debug_traces_list_and_fetch(self, gateway) -> None:
        __, headers, __ = self._request(
            gateway, "/link", payload={"text": "the graph", "classes": ["05C40"]}
        )
        trace_id = headers["x-request-id"]
        __, __, listing = self._request(gateway, "/debug/traces?limit=3")
        assert any(trace["trace_id"] == trace_id for trace in listing["traces"])
        assert len(listing["traces"]) <= 3
        __, __, fetched = self._request(gateway, f"/debug/traces/{trace_id}")
        names = {span["name"] for span in fetched["spans"]}
        assert "http.POST" in names
        assert "stage.render" in names

    def test_debug_traces_unknown_id_404(self, gateway) -> None:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._request(gateway, "/debug/traces/" + "ee" * 16)
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_debug_traces_available_while_not_ready(self, gateway) -> None:
        gateway.set_ready(False)
        try:
            status, __, __ = self._request(gateway, "/debug/traces")
            assert status == 200
        finally:
            gateway.set_ready(True)

    def test_debug_traces_404_when_tracing_disabled(self) -> None:
        instance = serve_http(make_linker())
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._request(instance, "/debug/traces")
            assert excinfo.value.code == 404
            excinfo.value.close()
        finally:
            instance.shutdown()
            instance.server_close()


class TestBatchTracing:
    def test_thread_mode_batch_spans_form_one_tree(self, tracer) -> None:
        linker = make_linker(tracer)
        ids = linker.object_ids()[:4]
        report = BatchLinker(linker, fmt=None, workers=1).run(object_ids=ids)
        assert report.entries == 4
        batch_traces = [
            trace
            for trace in tracer.recent_traces()
            if any(span["name"] == "batch.run" for span in trace["spans"])
        ]
        assert len(batch_traces) == 1
        spans = batch_traces[0]["spans"]
        root = next(span for span in spans if span["name"] == "batch.run")
        entries = [span for span in spans if span["name"] == "batch.entry"]
        assert len(entries) == 4
        assert all(span["parent_id"] == root["span_id"] for span in entries)
        assert {span["attributes"]["object_id"] for span in entries} == set(ids)
        # Linker stage spans nest under the per-document spans.
        entry_ids = {span["span_id"] for span in entries}
        stage_spans = [span for span in spans if span["name"].startswith("stage.")]
        link_spans = [span for span in spans if span["name"] == "linker.link_text"]
        assert link_spans and all(
            span["parent_id"] in entry_ids for span in link_spans
        )
        assert stage_spans
