"""Cache and metrics consistency under concurrent reads and writes.

Readers hammer ``linkEntry`` (socket server) and ``GET /entry`` (HTTP
gateway, which serves through the render cache) while a writer grows the
corpus.  Under the readers-writer lock every observed body must equal
the rendering of some *prefix* of the write sequence — never a torn
state — and once the writer finishes, reads must serve the fully fresh
rendering.  A :class:`MetricsRegistry` is attached throughout so the
instrumented hot path runs under real contention.
"""

import json
import threading
import urllib.request

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.core.render import render_html
from repro.obs.metrics import MetricsRegistry
from repro.ontology.msc import build_small_msc
from repro.server.client import NNexusClient
from repro.server.core import linker_rwlock
from repro.server.http_gateway import serve_http
from repro.server.server import serve_forever

READER_ENTRY = CorpusObject(
    9, "walkthrough", defines=["walkthrough"], classes=["05C40"],
    text="The graph has a tree and a cycle inside.",
)

BASE_OBJECTS = [
    CorpusObject(1, "graph", defines=["graph"], classes=["05C99"],
                 text="Vertices and edges."),
    READER_ENTRY,
]

# Each write defines a label occurring in READER_ENTRY's text, so every
# write invalidates the cached rendering of entry 9.
WRITES = [
    CorpusObject(20, "tree", defines=["tree"], classes=["05C05"],
                 text="An acyclic graph."),
    CorpusObject(21, "cycle", defines=["cycle"], classes=["05C38"],
                 text="A closed walk."),
]

LINK_TEXT = "the graph has a tree and a cycle"
LINK_CLASSES = ["05C40"]


def build_linker(extra: list[CorpusObject]) -> NNexus:
    linker = NNexus(scheme=build_small_msc(), metrics=MetricsRegistry())
    linker.add_objects(BASE_OBJECTS)
    for obj in extra:
        linker.add_object(obj)
    return linker


def expected_prefix_states(render):
    """One expected body per write-sequence prefix (0..len(WRITES))."""
    return [render(build_linker(WRITES[:k])) for k in range(len(WRITES) + 1)]


def test_link_entry_consistent_under_writes() -> None:
    expected = expected_prefix_states(
        lambda linker: render_html(
            linker.link_text(LINK_TEXT, source_classes=LINK_CLASSES)
        )
    )
    assert len(set(expected)) == len(expected)  # every write changes the answer

    server = serve_forever(build_linker([]))
    try:
        host, port = server.address
        bodies: list[str] = []
        errors: list[Exception] = []
        lock = threading.Lock()
        stop = threading.Event()

        def reader() -> None:
            try:
                with NNexusClient(host, port) as client:
                    while not stop.is_set():
                        body, __ = client.link_entry(LINK_TEXT, classes=LINK_CLASSES)
                        with lock:
                            bodies.append(body)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()

        with NNexusClient(host, port) as writer:
            for obj in WRITES:
                writer.add_object(obj)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors
        assert bodies
        assert set(bodies) <= set(expected), "observed a torn/unknown rendering"

        # After the last write, a fresh read sees the final state.
        with NNexusClient(host, port) as client:
            final_body, __ = client.link_entry(LINK_TEXT, classes=LINK_CLASSES)
            snapshot = client.get_metrics()
        assert final_body == expected[-1]

        # The registry survived the contention with coherent totals.
        requests = sum(
            c["value"]
            for c in snapshot["counters"]
            if c["name"] == "nnexus_entries_linked_total"
        )
        assert requests == len(bodies) + 1
        stages = {
            h["labels"]["stage"]: h["count"]
            for h in snapshot["histograms"]
            if h["name"] == "nnexus_pipeline_stage_seconds"
        }
        assert stages.get("match", 0) >= len(bodies)
    finally:
        server.shutdown()
        server.server_close()


def test_cached_entry_consistent_under_writes() -> None:
    expected = expected_prefix_states(lambda linker: linker.render_object(9))
    assert len(set(expected)) == len(expected)

    linker = build_linker([])
    gateway = serve_http(linker)
    try:
        host, port = gateway.address
        bodies: list[str] = []
        errors: list[Exception] = []
        lock = threading.Lock()
        stop = threading.Event()

        def fetch_entry() -> str:
            url = f"http://{host}:{port}/entry/9"
            with urllib.request.urlopen(url, timeout=10) as resp:
                return json.loads(resp.read())["html"]

        def reader() -> None:
            try:
                while not stop.is_set():
                    body = fetch_entry()
                    with lock:
                        bodies.append(body)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        # Prime the cache so the first write invalidates a cached slot.
        assert fetch_entry() == expected[0]

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()

        # The gateway is read-only; mutations come from "the site" under
        # the linker's readers-writer lock, the one the gateway reads
        # with.  Reading
        # the entry after each write re-renders it, so the next write
        # invalidates a clean cache slot.
        for obj in WRITES:
            with linker_rwlock(linker).write_lock():
                linker.add_object(obj)
            fetch_entry()
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors
        assert bodies
        assert set(bodies) <= set(expected), "cache served a stale/torn rendering"
        assert fetch_entry() == expected[-1]

        # The cache was actually exercised (hits) and invalidated per write.
        snapshot = gateway.metrics_snapshot()
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert counters["nnexus_cache_invalidations_total"] >= len(WRITES)
        assert counters["nnexus_cache_hits_total"] >= 1
    finally:
        gateway.shutdown()
        gateway.server_close()
