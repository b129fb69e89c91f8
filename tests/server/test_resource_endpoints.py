"""Resource & saturation observability over the wire and the gateway:
getResourceStats, getProfile, GET /debug/profile, contention metrics."""

import json
import re
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.core.linker import NNexus
from repro.corpus.generator import GeneratorParams, generate_corpus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.ontology.msc import build_small_msc
from repro.server.client import NNexusClient, RemoteError
from repro.server.http_gateway import serve_http
from repro.server.server import serve_forever


def make_linker(metrics: bool = True) -> NNexus:
    linker = NNexus(
        scheme=build_small_msc(),
        metrics=MetricsRegistry() if metrics else None,
    )
    linker.add_objects(sample_corpus())
    return linker


@pytest.fixture()
def server():
    instance = serve_forever(make_linker())
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture()
def profiled_server():
    profiler = SamplingProfiler(interval_sec=0.001)
    profiler.start()
    instance = serve_forever(make_linker(), profiler=profiler)
    yield instance
    instance.shutdown()
    instance.server_close()
    profiler.stop()


def fetch(gateway, path: str):
    host, port = gateway.address
    return urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10)


class TestGetResourceStats:
    def test_reports_components_and_server_saturation(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            client.link_entry("every planar graph is sparse", classes=["05C10"])
            stats = client.get_resource_stats()
        assert stats["objects"] == 30
        assert stats["uptime_seconds"] >= 0.0
        components = stats["memory"]["components"]
        for name in ("objects", "map_segments", "invalidation",
                     "render_cache", "trace_ring", "metrics"):
            assert name in components, name
            assert components[name]["bytes"] >= 0
        # Shallow call: no deep walk has happened yet.
        assert stats["memory"]["reconcile"] == {}
        srv = stats["server"]
        assert srv["max_in_flight"] >= 1
        # Debug methods bypass admission, so this request holds no slot.
        assert srv["in_flight"] >= 0
        assert srv["writers_waiting"] == 0
        assert srv["draining"] is False

    def test_deep_flag_forces_a_reconcile_within_2x(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            stats = client.get_resource_stats(deep=True)
        reconcile = stats["memory"]["reconcile"]
        assert reconcile, "deep=1 must run the deep walk"
        for component, entry in reconcile.items():
            assert 0.5 <= entry["ratio"] <= 2.0, (component, entry)

    def test_counts_as_a_read_method(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            client.get_resource_stats()
            snapshot = client.get_metrics()
        counters = {
            (c["name"], c["labels"].get("method")): c["value"]
            for c in snapshot["counters"]
        }
        assert counters[("nnexus_server_requests_total", "getResourceStats")] >= 1

    def test_deep_reconcile_under_concurrent_writes(self) -> None:
        # Debug methods bypass the readers-writer lock, so a deep walk
        # runs while writers mutate the graphs it walks.
        corpus = generate_corpus(GeneratorParams(n_entries=150, seed=11))
        linker = NNexus(scheme=corpus.scheme, metrics=MetricsRegistry())
        linker.add_objects(corpus.objects)
        for object_id in linker.object_ids():
            linker.render_object(object_id)  # writes now invalidate cached rows
        instance = serve_forever(linker)
        host, port = instance.address
        stop = threading.Event()
        replies: list[dict] = []
        errors: list[Exception] = []

        def reconcile_loop() -> None:
            try:
                with NNexusClient(host, port) as reader:
                    while not stop.is_set():
                        replies.append(reader.get_resource_stats(deep=True))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the walk and the writes finely
        thread = threading.Thread(target=reconcile_loop)
        thread.start()
        try:
            with NNexusClient(host, port) as writer:
                deadline = time.monotonic() + 30.0
                step = 0
                while step < 80 or (len(replies) < 2 and time.monotonic() < deadline):
                    obj = corpus.objects[step % len(corpus.objects)]
                    if step % 4 == 0:
                        writer.update_object(replace(obj, text=obj.text[::-1]))
                    elif step % 4 == 1:
                        writer.remove_object(obj.object_id)
                        writer.add_object(obj)
                    elif step % 4 == 2:
                        writer.update_object(obj)
                    else:
                        writer.link_entry(obj.text, classes=obj.classes)
                    step += 1
        finally:
            stop.set()
            thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
            instance.shutdown()
            instance.server_close()
        assert not thread.is_alive()
        assert not errors, errors
        assert len(replies) >= 2
        assert linker.accountant.snapshot()["reconcile_count"] >= 2
        fresh = NNexus(scheme=corpus.scheme)
        fresh.add_objects(linker.get_object(oid) for oid in linker.object_ids())
        for object_id in linker.object_ids():
            assert linker.render_object(object_id) == fresh.render_object(object_id)


class TestGetProfile:
    def test_disabled_profiler_is_a_client_error(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            with pytest.raises(RemoteError, match="profiling is not enabled"):
                client.get_profile()

    def test_returns_aggregated_samples_under_load(self, profiled_server) -> None:
        host, port = profiled_server.address
        with NNexusClient(host, port) as client:
            deadline = time.monotonic() + 5.0
            profile = client.get_profile()
            while profile["samples"] == 0 and time.monotonic() < deadline:
                client.link_entry("every planar graph is sparse",
                                  classes=["05C10"])
                profile = client.get_profile()
        assert profile["enabled"] is True
        assert profile["running"] is True
        assert profile["samples"] > 0
        assert profile["distinct_stacks"] >= 1
        assert profile["stacks"][0]["count"] >= 1

    def test_limit_caps_returned_stacks(self, profiled_server) -> None:
        host, port = profiled_server.address
        with NNexusClient(host, port) as client:
            deadline = time.monotonic() + 5.0
            while client.get_profile()["distinct_stacks"] < 2:
                if time.monotonic() > deadline:
                    pytest.skip("sampler found <2 stacks on this machine")
                client.link_entry("a tree is bipartite", classes=["05C05"])
            profile = client.get_profile(limit=1)
        assert len(profile["stacks"]) == 1
        assert profile["distinct_stacks"] >= 2

    def test_non_positive_limit_is_a_client_error(self, profiled_server) -> None:
        host, port = profiled_server.address
        with NNexusClient(host, port) as client:
            for limit in (0, -3):
                with pytest.raises(RemoteError, match="bad limit"):
                    client.get_profile(limit=limit)

    def test_collapsed_format(self, profiled_server) -> None:
        host, port = profiled_server.address
        with NNexusClient(host, port) as client:
            deadline = time.monotonic() + 5.0
            while client.get_profile()["samples"] == 0:
                if time.monotonic() > deadline:
                    break
                client.link_entry("the graph is connected", classes=["05C40"])
            collapsed = client.get_profile_collapsed()
        for line in collapsed.splitlines():
            assert re.fullmatch(r"[^ ]+ \d+", line), line


class TestDebugProfileEndpoint:
    def test_404_when_profiling_disabled(self) -> None:
        gateway = serve_http(make_linker())
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(gateway, "/debug/profile")
            assert excinfo.value.code == 404
            excinfo.value.close()
        finally:
            gateway.shutdown()
            gateway.server_close()

    def test_json_and_collapsed_bodies(self) -> None:
        profiler = SamplingProfiler(interval_sec=0.001)
        profiler.start()
        gateway = serve_http(make_linker(), profiler=profiler)
        try:
            deadline = time.monotonic() + 5.0
            while profiler.sample_count() == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            with fetch(gateway, "/debug/profile") as resp:
                body = json.loads(resp.read().decode("utf-8"))
                assert resp.headers["Content-Type"].startswith("application/json")
            assert body["enabled"] is True
            assert body["samples"] > 0
            with fetch(gateway, "/debug/profile?format=collapsed") as resp:
                text = resp.read().decode("utf-8")
                assert resp.headers["Content-Type"].startswith("text/plain")
            for line in text.splitlines():
                assert re.fullmatch(r"[^ ]+ \d+", line), line
        finally:
            gateway.shutdown()
            gateway.server_close()
            profiler.stop()

    def test_bad_format_and_limit_are_400(self) -> None:
        profiler = SamplingProfiler(interval_sec=0.05)
        profiler.start()
        gateway = serve_http(make_linker(), profiler=profiler)
        try:
            for path in ("/debug/profile?format=xml",
                         "/debug/profile?limit=zero",
                         "/debug/profile?limit=-3"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    fetch(gateway, path)
                assert excinfo.value.code == 400, path
                excinfo.value.close()
        finally:
            gateway.shutdown()
            gateway.server_close()
            profiler.stop()


class TestSaturationTelemetry:
    def test_rwlock_wait_histograms_by_mode(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            client.link_entry("every planar graph is sparse", classes=["05C10"])
            client.set_policy(1, "")
            snapshot = client.get_metrics()
        modes = {
            h["labels"].get("mode")
            for h in snapshot["histograms"]
            if h["name"] == "nnexus_rwlock_wait_seconds"
        }
        # linkEntry takes the writer side, reads take the reader side.
        assert modes >= {"reader", "writer"}

    def test_admission_wait_histogram_recorded(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            client.ping()
            snapshot = client.get_metrics()
        names = {h["name"] for h in snapshot["histograms"]}
        assert "nnexus_admission_wait_seconds" in names

    def test_pipeline_gauges_and_queue_wait(self, server) -> None:
        host, port = server.address
        # The client tags every request with a reqid, routing reads
        # through the shared executor and its queue-wait histogram.
        with NNexusClient(host, port) as client:
            for _ in range(4):
                assert client.describe()["objects"] == 30
            snapshot = client.get_metrics()
        gauges = {g["name"] for g in snapshot["gauges"]}
        assert "nnexus_pipeline_in_flight" in gauges
        assert "nnexus_pipeline_depth_limit" in gauges
        histograms = {h["name"] for h in snapshot["histograms"]}
        assert "nnexus_pipeline_queue_wait_seconds" in histograms
