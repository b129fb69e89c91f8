"""Tests for the HTTP/JSON gateway."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
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
            instance.set_ready(False)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(instance, "/ready")
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
            excinfo.value.close()
            # Liveness stays green: the process is up, just not serving.
            status, __ = get(instance, "/health")
            assert status == 200
            instance.set_ready(True)
            status, __ = get(instance, "/ready")
            assert status == 200
        finally:
            instance.shutdown()
            instance.server_close()


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
