"""Read-only degradation across the server stack.

When the linker's journal fails, mutations must come back over the
wire as a non-retryable ``read-only`` error while reads keep serving,
and the HTTP gateway's ``/ready`` must advertise the degraded mode so
probes and write-routing load balancers can react.
"""

import json
import urllib.request

import pytest

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.persistence import SqliteBackend
from repro.server.client import NNexusClient, RemoteError
from repro.server.http_gateway import serve_http
from repro.server.server import serve_forever
from tests.storage.sqlite_faults import FailingConnection


def degraded_linker(tmp_path) -> NNexus:
    storage = SqliteBackend(tmp_path / "data")
    linker = NNexus(scheme=build_small_msc(), storage=storage)
    linker.add_objects(sample_corpus())
    FailingConnection.install(storage, fail_on=1)
    # This mutation succeeds in memory but its journal write fails,
    # flipping the linker to read-only.
    linker.add_object(CorpusObject(901, "chromatic number", classes=["05C15"]))
    assert linker.read_only
    return linker


class TestSocketServer:
    def test_writes_refused_reads_served(self, tmp_path) -> None:
        linker = degraded_linker(tmp_path)
        server = serve_forever(linker)
        try:
            with NNexusClient(*server.address) as client:
                # Reads keep flowing in read-only mode.
                assert client.describe()["read_only"] == 1
                body, links = client.link_entry(
                    "every planar graph has connected components",
                    classes=["05C10"],
                )
                assert links
                # Writes come back as a typed, non-retryable error.
                with pytest.raises(RemoteError) as excinfo:
                    client.add_object(CorpusObject(902, "girth", defines=["girth"]))
                assert excinfo.value.code == "read-only"
                assert excinfo.value.retryable is False
        finally:
            server.shutdown()
            server.server_close()
            linker.storage.close()


class TestHttpGateway:
    def get(self, gateway, path):
        host, port = gateway.address
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=5) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))

    def test_ready_reports_read_only_mode(self, tmp_path) -> None:
        linker = degraded_linker(tmp_path)
        gateway = serve_http(linker)
        try:
            status, payload = self.get(gateway, "/ready")
            assert status == 200
            assert payload["status"] == "ready"
            assert payload["mode"] == "read-only"
            assert "OperationalError" in payload["reason"]
        finally:
            gateway.shutdown()
            gateway.server_close()
            linker.storage.close()

    def test_ready_reports_serving_mode_when_healthy(self, tmp_path) -> None:
        storage = SqliteBackend(tmp_path / "data")
        linker = NNexus(scheme=build_small_msc(), storage=storage)
        gateway = serve_http(linker)
        try:
            status, payload = self.get(gateway, "/ready")
            assert status == 200
            assert payload == {"status": "ready", "mode": "serving"}
        finally:
            gateway.shutdown()
            gateway.server_close()
            storage.close()
