"""The render stage is observed once per rendering on every path.

The cache miss path, the socket server's ``linkEntry``, the gateway's
``/link`` and in-process batch runs all render through
``NNexus.render_document``; an unknown format is refused before any
linking.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.batch import BatchLinker
from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.metrics import MetricsRegistry
from repro.ontology.msc import build_small_msc
from repro.server.client import NNexusClient, RemoteError
from repro.server.http_gateway import serve_http
from repro.server.server import serve_forever


def make_linker() -> NNexus:
    linker = NNexus(scheme=build_small_msc(), metrics=MetricsRegistry())
    linker.add_objects(sample_corpus())
    return linker


def render_count(linker: NNexus) -> int:
    return linker.metrics.histogram_summary(
        "nnexus_pipeline_stage_seconds", stage="render"
    ).count


@pytest.fixture()
def server():
    instance = serve_forever(make_linker())
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture()
def gateway():
    instance = serve_http(make_linker())
    yield instance
    instance.shutdown()
    instance.server_close()


def post_link(gateway, payload: dict) -> int:
    host, port = gateway.address
    request = urllib.request.Request(
        f"http://{host}:{port}/link",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            resp.read()
            return resp.status
    except urllib.error.HTTPError as exc:
        exc.read()
        exc.close()
        return exc.code


class TestOneObservationPerRendering:
    def test_link_entry(self, server) -> None:
        linker = server.linker
        host, port = server.address
        with NNexusClient(host, port) as client:
            for fmt, expected in (("html", 1), ("markdown", 2)):
                client.link_entry("every planar graph", classes=["05C10"], fmt=fmt)
                assert render_count(linker) == expected

    def test_gateway_link(self, gateway) -> None:
        linker = gateway.linker
        for expected in (1, 2):
            assert post_link(gateway, {"text": "a planar graph"}) == 200
            assert render_count(linker) == expected

    def test_render_object_miss_then_hit(self) -> None:
        linker = make_linker()
        linker.render_object(2)
        assert render_count(linker) == 1
        linker.render_object(2)
        assert render_count(linker) == 1
        linker.render_object(2, fmt="markdown")
        assert render_count(linker) == 2

    def test_in_process_batch_entry(self) -> None:
        linker = make_linker()
        report = BatchLinker(linker, fmt="html").run(object_ids=[1, 2, 3])
        assert report.entries == 3
        assert render_count(linker) == 3


class TestUnknownFormatLinksNothing:
    def test_link_entry_is_a_bad_request(self, server) -> None:
        linker = server.linker
        linked = linker.stats.entries_linked
        host, port = server.address
        with NNexusClient(host, port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.link_entry("a planar graph", fmt="docx")
        assert excinfo.value.code == "bad-request"
        assert linker.stats.entries_linked == linked
        assert render_count(linker) == 0

    def test_gateway_link_is_400(self, gateway) -> None:
        linker = gateway.linker
        linked = linker.stats.entries_linked
        assert post_link(gateway, {"text": "a planar graph", "format": "docx"}) == 400
        assert linker.stats.entries_linked == linked
        assert render_count(linker) == 0
