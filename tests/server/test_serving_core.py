"""The connection core both front ends share (``repro.server.core``).

Each test drives a live socket server or HTTP gateway over loopback:
the write deadline that frees workers pinned by a slow reader, the
teardown of idle connections, the listen backlog under a burst of
connects, the one readers-writer lock per linker, and the periodic
flush of buffered renderings.
"""

import json
import selectors
import socket
import sqlite3
import threading
import time
import urllib.request

import pytest

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.persistence.sqlite_backend import SqliteBackend
from repro.server import core, protocol
from repro.server.client import NNexusClient
from repro.server.http_gateway import serve_http
from repro.server.server import serve_forever


def make_linker(**kwargs) -> NNexus:
    linker = NNexus(scheme=build_small_msc(), **kwargs)
    linker.add_objects(sample_corpus())
    return linker


def send_request(sock, method, fields) -> None:
    request = protocol.Request(method, fields=dict(fields))
    sock.sendall(protocol.frame(protocol.encode_request(request)))


class TestWriteDeadline:
    def test_slow_reader_does_not_pin_the_pipeline_workers(self) -> None:
        """A connection that pipelines large reads and never reads the
        answers blocks every executor worker in a write; the write
        deadline frees them, so another connection is still served."""
        timeout = 0.5
        server = serve_forever(make_linker(), request_timeout=timeout)
        try:
            with socket.socket() as slow:
                # A small receive buffer, so one response fills it.
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.connect(server.address)
                text = "x" * 100_000  # one token: cheap to link, large to answer
                try:
                    # About 20 answers fit in the socket buffers; the
                    # rest pin every worker, and a few more queue.
                    for i in range(server.pipeline_workers + 24):
                        send_request(
                            slow, "linkEntry", {"reqid": f"q{i}", "text": text}
                        )
                except OSError:
                    pass  # cut at the write deadline before the last request
                time.sleep(0.2)
                with socket.create_connection(server.address, timeout=5) as other:
                    started = time.monotonic()
                    send_request(other, "ping", {"reqid": "p"})
                    other.settimeout(timeout + 1.0)
                    reply = protocol.decode_response(protocol.read_frame(other.recv))
                    assert reply.ok and reply.fields["reqid"] == "p"
                    assert time.monotonic() - started < timeout + 1.0
        finally:
            server.shutdown()
            server.server_close()


class TestTeardown:
    def test_server_close_ends_idle_connections_and_their_threads(self) -> None:
        server = serve_forever(make_linker())
        closer = threading.Thread(target=lambda: (server.shutdown(), server.server_close()))
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_request(sock, "ping", {})
                assert protocol.decode_response(protocol.read_frame(sock.recv)).ok
                handlers = list(server._threads)  # socketserver's own record
                closer.start()
                sock.settimeout(2.0)
                assert sock.recv(4096) == b""  # the server closed its side
        finally:
            if closer.ident is None:  # never started
                closer.start()
            closer.join(timeout=10)
        assert not closer.is_alive()
        assert handlers and not any(thread.is_alive() for thread in handlers)


def _burst_connect_times(address, count: int) -> list[float]:
    """Start ``count`` non-blocking connects at once; seconds each took."""
    sockets = []
    times: list[float] = []
    with selectors.DefaultSelector() as selector:
        try:
            started = time.monotonic()
            for __ in range(count):
                sock = socket.socket()
                sockets.append(sock)
                sock.setblocking(False)
                sock.connect_ex(address)
                selector.register(sock, selectors.EVENT_WRITE)
            while len(times) < count:
                events = selector.select(timeout=5.0)
                assert events, "connects did not finish"
                for key, __ in events:
                    selector.unregister(key.fileobj)
                    assert key.fileobj.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0
                    times.append(time.monotonic() - started)
        finally:
            for sock in sockets:
                sock.close()
    return times


class TestListenBacklog:
    @pytest.mark.parametrize("front", [serve_forever, serve_http], ids=["xml", "http"])
    def test_connect_burst_is_not_dropped(self, front) -> None:
        """100 simultaneous connects all land in the backlog: none waits
        out a SYN retransmit (1 s)."""
        server = front(make_linker())
        try:
            times = _burst_connect_times(server.address, 100)
            assert max(times) < 0.5
        finally:
            server.shutdown()
            server.server_close()


class TestSharedLock:
    def test_http_read_waits_for_an_xml_write(self) -> None:
        """Front ends on one linker share its lock without any wiring."""
        linker = make_linker()
        server = serve_forever(linker)
        gateway = serve_http(linker)
        entered = threading.Event()
        release = threading.Event()
        original = linker.add_object

        def held_add_object(obj):
            entered.set()
            release.wait(10)
            return original(obj)

        linker.add_object = held_add_object  # type: ignore[method-assign]
        read_done = threading.Event()

        def write() -> None:
            with NNexusClient(*server.address) as client:
                client.add_object(
                    CorpusObject(object_id=900, title="lattice", defines=["lattice"])
                )

        def read() -> None:
            host, port = gateway.address
            with urllib.request.urlopen(f"http://{host}:{port}/describe", timeout=10):
                read_done.set()

        writer = threading.Thread(target=write)
        reader = threading.Thread(target=read)
        try:
            writer.start()
            assert entered.wait(5)
            reader.start()
            assert not read_done.wait(0.3), "the read ran under the write"
            release.set()
            assert read_done.wait(5)
        finally:
            release.set()
            writer.join(timeout=10)
            reader.join(timeout=10)
            gateway.shutdown()
            gateway.server_close()
            server.shutdown()
            server.server_close()
        assert not writer.is_alive() and not reader.is_alive()


class TestCheckpoint:
    def test_served_renderings_reach_the_store_without_a_close(
        self, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.setattr(core, "_CHECKPOINT_INTERVAL", 0.1)
        storage = SqliteBackend(tmp_path, sync="batch")
        try:
            linker = make_linker(storage=storage)
            gateway = serve_http(linker)
            try:
                host, port = gateway.address
                with urllib.request.urlopen(
                    f"http://{host}:{port}/entry/2", timeout=10
                ) as response:
                    assert json.loads(response.read())["object_id"] == 2
                deadline = time.monotonic() + 2.0
                rows: list = []
                while not rows and time.monotonic() < deadline:
                    time.sleep(0.05)
                    with sqlite3.connect(tmp_path / "corpus.sqlite3") as reader:
                        rows = reader.execute(
                            "SELECT valid FROM renderings WHERE object_id=2"
                        ).fetchall()
                    reader.close()
                assert rows == [(1,)]
            finally:
                gateway.shutdown()
                gateway.server_close()
        finally:
            storage.close()
