"""Tests for the HTTP/JSON gateway."""

import gc
import json
import logging
import select
import socket
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.profile import SamplingProfiler
from repro.obs.trace import Tracer
from repro.ontology.msc import build_small_msc
from repro.server import http_gateway
from repro.server.http_gateway import serve_http


@pytest.fixture(scope="module")
def gateway():
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    instance = serve_http(linker)
    yield instance
    instance.shutdown()
    instance.server_close()


def get(gateway, path: str):
    host, port = gateway.address
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as response:
        return response.status, json.loads(response.read())


def post(gateway, path: str, payload: dict):
    host, port = gateway.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestRoutes:
    def test_health(self, gateway) -> None:
        status, payload = get(gateway, "/health")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_describe(self, gateway) -> None:
        __, payload = get(gateway, "/describe")
        assert payload["objects"] == 30
        assert payload["concepts"] > 30

    def test_link(self, gateway) -> None:
        __, payload = post(
            gateway,
            "/link",
            {"text": "every planar graph is sparse", "classes": ["05C10"],
             "format": "markdown"},
        )
        assert payload["linkcount"] == 1
        assert payload["links"][0]["phrase"] == "planar graph"
        assert payload["links"][0]["target"] == 2
        assert "](" in payload["body"]

    def test_link_respects_steering(self, gateway) -> None:
        __, graph_theory = post(gateway, "/link",
                                {"text": "the graph", "classes": ["05C40"]})
        __, set_theory = post(gateway, "/link",
                              {"text": "the graph", "classes": ["03E20"]})
        assert graph_theory["links"][0]["target"] == 5
        assert set_theory["links"][0]["target"] == 6

    def test_annotations_endpoint(self, gateway) -> None:
        __, payload = post(
            gateway,
            "/annotations",
            {"text": "a tree is bipartite", "classes": ["05C05"],
             "source": "urn:x:blog"},
        )
        assert payload["type"] == "AnnotationCollection"
        assert payload["total"] >= 1
        assert payload["items"][0]["target"]["source"] == "urn:x:blog"

    def test_entry(self, gateway) -> None:
        __, payload = get(gateway, "/entry/2")
        assert payload["title"] == "planar graph"
        assert "html" in payload


class TestReadiness:
    def test_ready_when_serving(self, gateway) -> None:
        status, payload = get(gateway, "/ready")
        assert status == 200
        assert payload == {"status": "ready", "mode": "serving"}

    def test_not_ready_is_503_with_retry_after(self) -> None:
        linker = NNexus(scheme=build_small_msc())
        instance = serve_http(linker)
        try:
            instance._draining.set()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(instance, "/ready")
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
            excinfo.value.close()
            # Liveness stays green: the process is up, just not serving.
            status, __ = get(instance, "/health")
            assert status == 200
        finally:
            instance.shutdown()
            instance.server_close()

    def test_draining_gateway_sheds_work_and_answers_probes(self) -> None:
        linker = NNexus(scheme=build_small_msc(), tracer=Tracer())
        linker.add_objects(sample_corpus())
        profiler = SamplingProfiler(interval_sec=0.01)
        profiler.start()
        instance = serve_http(linker, profiler=profiler)
        try:
            instance._draining.set()
            shed = [
                lambda: post(instance, "/link", {"text": "a tree"}),
                lambda: post(instance, "/annotations", {"text": "a tree"}),
                lambda: get(instance, "/describe"),
                lambda: get(instance, "/entry/2"),
            ]
            for call in shed:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    call()
                assert excinfo.value.code == 503
                assert excinfo.value.headers["Retry-After"] == "1"
                assert json.loads(excinfo.value.read())["retryable"] is True
                excinfo.value.close()
            for path in ("/health", "/metrics", "/debug/traces", "/debug/profile"):
                host, port = instance.address
                url = f"http://{host}:{port}{path}"
                with urllib.request.urlopen(url, timeout=10) as response:
                    assert response.status == 200
        finally:
            instance.shutdown()
            instance.server_close()
            profiler.stop()


class TestOverload:
    def test_saturated_gateway_sheds_with_503(self) -> None:
        import threading

        linker = NNexus(scheme=build_small_msc())
        linker.add_objects(sample_corpus())
        instance = serve_http(linker, max_in_flight=1)
        try:
            entered = threading.Event()
            release = threading.Event()
            original = instance.linker.link_text

            def slow_link_text(text, source_classes=()):
                entered.set()
                release.wait(10)
                return original(text, source_classes=source_classes)

            instance.linker.link_text = slow_link_text
            result: dict = {}

            def occupant() -> None:
                result["response"] = post(
                    instance, "/link", {"text": "a tree", "classes": ["05C05"]}
                )

            thread = threading.Thread(target=occupant)
            thread.start()
            assert entered.wait(5)
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get(instance, "/describe")
                assert excinfo.value.code == 503
                assert excinfo.value.headers["Retry-After"] == "1"
                payload = json.loads(excinfo.value.read())
                assert payload["retryable"] is True
                excinfo.value.close()
            finally:
                release.set()
            thread.join(timeout=10)
            status, payload = result["response"]
            assert status == 200
            assert payload["linkcount"] >= 1
        finally:
            instance.shutdown()
            instance.server_close()


class TestErrors:
    def expect_status(self, callable_, expected: int) -> dict:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            callable_()
        assert excinfo.value.code == expected
        return json.loads(excinfo.value.read())

    def test_unknown_route_404(self, gateway) -> None:
        payload = self.expect_status(lambda: get(gateway, "/nope"), 404)
        assert "error" in payload

    def test_unknown_entry_404(self, gateway) -> None:
        self.expect_status(lambda: get(gateway, "/entry/99999"), 404)

    def test_bad_json_400(self, gateway) -> None:
        host, port = gateway.address

        def send_garbage():
            request = urllib.request.Request(
                f"http://{host}:{port}/link",
                data=b"not json",
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            urllib.request.urlopen(request, timeout=10)

        self.expect_status(send_garbage, 400)

    def test_unknown_format_400(self, gateway) -> None:
        self.expect_status(
            lambda: post(gateway, "/link", {"text": "x", "format": "docx"}), 400
        )

    def test_empty_body_400(self, gateway) -> None:
        host, port = gateway.address

        def send_empty():
            request = urllib.request.Request(
                f"http://{host}:{port}/link", data=b"", method="POST"
            )
            urllib.request.urlopen(request, timeout=10)

        self.expect_status(send_empty, 400)

    @pytest.mark.parametrize(
        "payload",
        [
            {"text": "x", "classes": 5},
            {"text": "x", "classes": "05C10"},
            {"text": ["a"]},
            {"text": "x", "classes": ["05C10", 5]},
            {"text": "x", "format": 1},
        ],
        ids=["classes-int", "classes-str", "text-list", "classes-item", "format-int"],
    )
    def test_link_rejects_wrongly_typed_fields(self, gateway, payload) -> None:
        body = self.expect_status(lambda: post(gateway, "/link", payload), 400)
        assert "must be" in body["error"]

    def test_annotations_rejects_non_string_source(self, gateway) -> None:
        body = self.expect_status(
            lambda: post(gateway, "/annotations", {"text": "x", "source": 7}), 400
        )
        assert "'source' must be a string" == body["error"]


def _read_until_closed(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # closed with our bytes unread
            chunk = b""
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _exchange(gateway, data: bytes) -> bytes:
    """Send ``data`` and read until the gateway closes the connection."""
    with socket.create_connection(gateway.address, timeout=5) as sock:
        sock.sendall(data)
        return _read_until_closed(sock)


class TestMalformedRequests:
    """Each is refused with one 400 and a close, before any route runs."""

    @pytest.mark.parametrize(
        "headers",
        [
            b"Host: a\r\nbogus\r\n",
            b"bogus\r\nHost: a\r\n",
            b"Host: a\r\nX-Pad : 1\r\n",
            b"Host: a\r\n folded\r\n",
            b" X-Pad: 1\r\nHost: a\r\n",
            b"From a\r\nHost: a\r\n",
            b"Host: a\r\nX-Pad: a\rContent-Length: 0\r\n",
            b"Host: a\r\nX-Pad: a\r\r\n",
        ],
        ids=["no-colon", "no-colon-first", "space-before-colon", "folded",
             "leading-continuation", "envelope", "bare-cr", "bare-cr-before-crlf"],
    )
    def test_header_line_not_name_colon_value(self, gateway, headers) -> None:
        reply = _exchange(gateway, b"GET /health HTTP/1.1\r\n" + headers + b"\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in reply
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == {"error": "bad header line"}

    def test_content_length_after_a_bad_line_is_not_lost(self, gateway) -> None:
        """The body must not be read as a second request (desync)."""
        smuggled = b"GET /health HTTP/1.1\r\nHost: a\r\n\r\n"
        reply = _exchange(
            gateway,
            b"POST /link HTTP/1.1\r\nHost: a\r\nbogus\r\n"
            + f"Content-Length: {len(smuggled)}\r\n\r\n".encode()
            + smuggled,
        )
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_content_length_behind_a_bare_cr_is_not_read(self, gateway) -> None:
        """A proxy that keeps the CR inside the ``X-Pad`` value frames no
        body; the gateway must not read one either."""
        smuggled = b"GET /health HTTP/1.1\r\nHost: a\r\n\r\n"
        reply = _exchange(
            gateway,
            b"POST /link HTTP/1.1\r\nHost: a\r\n"
            + f"X-Pad: a\rContent-Length: {len(smuggled)}\r\n\r\n".encode()
            + smuggled,
        )
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == {"error": "bad header line"}

    def test_blank_line_before_the_request_line(self, gateway) -> None:
        reply = _exchange(gateway, b"\r\nGET /health HTTP/1.1\r\nHost: a\r\n\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert "bad request line" in json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"]


class TestDeadlines:
    """Each request phase has its own deadline, over the whole phase: a
    peer that stalls, or drips one byte per 0.1 s, is cut off."""

    @pytest.mark.parametrize(
        "constant, head, drip",
        [
            ("_KEEPALIVE_TIMEOUT", b"", b""),
            ("_KEEPALIVE_TIMEOUT", b"", b"GET /" + b"a" * 100),
            ("_HEADER_TIMEOUT", b"POST /link HTTP/1.1\r\nHost: a\r\n", b""),
            ("_HEADER_TIMEOUT", b"GET /health HTTP/1.1\r\n", b"X-Pad: " + b"a" * 100),
            (
                "_BODY_TIMEOUT",
                b"POST /link HTTP/1.1\r\nHost: a\r\nContent-Length: 100\r\n\r\n{\"te",
                b"",
            ),
            (
                "_BODY_TIMEOUT",
                b"POST /link HTTP/1.1\r\nHost: a\r\nContent-Length: 200\r\n\r\n",
                b"a" * 100,
            ),
        ],
        ids=["idle", "request-line-drip", "mid-headers", "headers-drip", "mid-body",
             "body-drip"],
    )
    def test_phase_is_cut_at_its_deadline(
        self, gateway, monkeypatch, constant, head, drip
    ) -> None:
        monkeypatch.setattr(http_gateway, constant, 0.3)
        with socket.create_connection(gateway.address, timeout=5) as sock:
            sock.sendall(head)
            started = time.monotonic()
            for byte in drip:  # one byte every 0.1 s until the gateway closes
                readable, __, __ = select.select([sock], [], [], 0.1)
                if readable:
                    break
                try:
                    sock.sendall(bytes([byte]))
                except OSError:
                    break
            assert _read_until_closed(sock) == b""
            assert time.monotonic() - started < 1.0


class TestShutdown:
    def test_idle_keep_alive_connection_does_not_hold_shutdown(self, caplog) -> None:
        linker = NNexus(scheme=build_small_msc())
        instance = serve_http(linker)
        unhandled: list = []
        instance.handle_error = lambda request, address: unhandled.append(address)
        # The nnexus.* loggers propagate to the root, where caplog sits.
        caplog.set_level(logging.ERROR)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with socket.create_connection(instance.address, timeout=5) as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: a\r\n\r\n")
                reply = sock.recv(65536)
                assert reply.startswith(b"HTTP/1.1 200 ")
                assert b"Connection: close" not in reply
                started = time.monotonic()
                instance.shutdown()
                instance.server_close()
                assert time.monotonic() - started < 2.0
                # The gateway closed its side of the idle connection.
                assert _read_until_closed(sock) == b""
            gc.collect()
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert unhandled == []
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
