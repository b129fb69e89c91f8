"""Tests for the observability surface: getMetrics and GET /metrics."""

import json
import re
import urllib.request

import pytest

from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.bench import STAGES
from repro.obs.metrics import MetricsRegistry
from repro.ontology.msc import build_small_msc
from repro.server.client import NNexusClient
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
def gateway():
    instance = serve_http(make_linker())
    yield instance
    instance.shutdown()
    instance.server_close()


def fetch_metrics_text(gateway) -> tuple[str, str]:
    host, port = gateway.address
    with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=10) as resp:
        return resp.read().decode("utf-8"), resp.headers.get("Content-Type", "")


def post_link(gateway, text: str, classes: list[str]) -> None:
    host, port = gateway.address
    request = urllib.request.Request(
        f"http://{host}:{port}/link",
        data=json.dumps({"text": text, "classes": classes}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        resp.read()


class TestWireGetMetrics:
    def test_snapshot_reflects_traffic(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            client.link_entry("every planar graph is sparse", classes=["05C10"])
            snapshot = client.get_metrics()

        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in snapshot["counters"]
        }
        assert counters[("nnexus_entries_linked_total", ())] >= 1
        assert counters[("nnexus_links_total", ())] >= 1
        # The dispatch layer counts itself too.
        assert (
            counters[
                ("nnexus_server_requests_total",
                 (("method", "linkEntry"), ("status", "ok")))
            ]
            == 1
        )

    def test_snapshot_has_stage_histograms(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            client.link_entry("the graph is connected", classes=["05C40"])
            snapshot = client.get_metrics()

        stage_series = {
            h["labels"]["stage"]
            for h in snapshot["histograms"]
            if h["name"] == "nnexus_pipeline_stage_seconds"
        }
        # linkEntry exercises the full pipeline including the render stage.
        assert stage_series >= set(STAGES)

    def test_in_flight_gauge_present(self, server) -> None:
        host, port = server.address
        with NNexusClient(host, port) as client:
            snapshot = client.get_metrics()
        gauges = {g["name"] for g in snapshot["gauges"]}
        assert "nnexus_server_in_flight" in gauges
        assert "nnexus_objects" in gauges

    def test_null_recorder_still_reports_cache_counters(self) -> None:
        instance = serve_forever(make_linker(metrics=False))
        try:
            host, port = instance.address
            with NNexusClient(host, port) as client:
                client.link_entry("a tree", classes=["05C05"])
                snapshot = client.get_metrics()
            names = {c["name"] for c in snapshot["counters"]}
            assert "nnexus_cache_hits_total" in names
            assert "nnexus_cache_misses_total" in names
            # Pipeline histograms need an attached registry.
            assert snapshot["histograms"] == []
        finally:
            instance.shutdown()
            instance.server_close()


class TestHttpMetricsEndpoint:
    def test_prometheus_text_with_stage_timings(self, gateway) -> None:
        post_link(gateway, "every planar graph is sparse", ["05C10"])
        post_link(gateway, "the graph is connected", ["05C40"])
        text, content_type = fetch_metrics_text(gateway)

        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE nnexus_pipeline_stage_seconds summary" in text
        for stage in STAGES:
            assert f'stage="{stage}"' in text, stage
        assert 'quantile="0.99"' in text
        assert "nnexus_pipeline_stage_seconds_count" in text
        assert "# TYPE nnexus_objects gauge" in text
        # A just-finished POST may still hold its admission slot, so the
        # gauge value races between 0 and 1 — assert the series exists.
        assert re.search(r"^nnexus_http_in_flight \d+$", text, re.MULTILINE)

    def test_scrape_is_parseable_sample_lines(self, gateway) -> None:
        post_link(gateway, "a tree is bipartite", ["05C05"])
        text, __ = fetch_metrics_text(gateway)
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.split()[1] != ""
                continue
            # Every sample line: <name>[{labels}] <float>
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part

    def test_metrics_served_without_registry(self) -> None:
        instance = serve_http(make_linker(metrics=False))
        try:
            text, __ = fetch_metrics_text(instance)
            # Cache/corpus series come from the linker itself.
            assert "# TYPE nnexus_cache_misses_total counter" in text
            assert "# TYPE nnexus_objects gauge" in text
            assert "nnexus_pipeline_stage_seconds" not in text
        finally:
            instance.shutdown()
            instance.server_close()


class TestOneSeriesPerFact:
    def test_linking_counts_are_one_series_each(self) -> None:
        """The linker's own stats are the only link/match counters."""
        linker = make_linker()
        for text, classes in (
            ("every planar graph is sparse", ["05C10"]),
            ("the graph is connected", ["05C40"]),
            ("nothing to link here", []),
        ):
            linker.link_text(text, source_classes=classes)
        for object_id in list(linker.object_ids())[:5]:
            linker.render_object(object_id)
        counters = {
            c["name"]: c["value"]
            for c in linker.metrics_snapshot()["counters"]
            if not c["labels"]
        }
        stats = linker.stats.snapshot()
        assert counters["nnexus_entries_linked_total"] == stats["entries_linked"] == 8
        assert counters["nnexus_matches_total"] == stats["matches_found"]
        assert counters["nnexus_links_total"] == stats["links_created"]
        for removed in (
            "nnexus_link_requests_total",
            "nnexus_matches_found_total",
            "nnexus_links_created_total",
        ):
            assert removed not in counters
