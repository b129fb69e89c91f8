"""Pipelined wire protocol: many in-flight requests per connection.

Covers both ends of the ``reqid`` contract.  Server side: a raw socket
drives interleaved, out-of-order, shed, and mid-frame-expiry scenarios
and checks every response comes back tagged with the right ``reqid``.
Client side: :class:`NNexusClient` multiplexes concurrent callers over
one connection, survives injected transport faults by closing the
broken socket before reconnecting, closes at once without leaving its
reader thread behind, and counts (rather than crashes on) responses
nobody is waiting for.
"""

import socket
import threading
import time

import pytest

from repro.core.errors import DeadlineExceededError, ProtocolError
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.server import protocol
from repro.server.client import NNexusClient
from repro.server.faults import FaultInjector
from repro.server.resilience import RetryPolicy
from repro.server.server import NNexusServer, serve_forever

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


class GatedLinker(NNexus):
    """``link_text`` blocks on a barrier and/or event so tests control
    exactly how many requests are in flight, and for how long."""

    def __init__(self, *, barrier=None, gate=None, **kwargs):
        super().__init__(**kwargs)
        self._barrier = barrier
        self._gate = gate

    def link_text(self, *args, **kwargs):
        if self._barrier is not None:
            self._barrier.wait(timeout=30)
        if self._gate is not None:
            assert self._gate.wait(timeout=30), "test gate never opened"
        return super().link_text(*args, **kwargs)


def make_linker(**kwargs):
    linker = GatedLinker(scheme=build_small_msc(), **kwargs)
    linker.add_objects(sample_corpus())
    return linker


def send_request(sock, method, fields=None):
    request = protocol.Request(method, fields=dict(fields or {}))
    sock.sendall(protocol.frame(protocol.encode_request(request)))


def read_response(sock):
    message = protocol.read_frame(sock.recv)
    assert message is not None, "server closed before answering"
    return protocol.decode_response(message)


class TestServerPipelining:
    @pytest.mark.parametrize("max_in_flight", [8, 64])
    def test_executor_size_is_derived_from_admission(self, max_in_flight) -> None:
        server = NNexusServer(make_linker(), max_in_flight=max_in_flight)
        try:
            assert server.pipeline_workers == min(32, max_in_flight)
            assert server._executor._max_workers == server.pipeline_workers
        finally:
            server.server_close()

    def test_32_concurrent_in_flight_matched_by_reqid(self) -> None:
        """One connection sustains >= 32 simultaneous requests.

        Every linkEntry blocks on a 32-party barrier inside the linker,
        so the test passes only if all 32 are genuinely executing at
        once; distinct texts prove each response was matched to *its*
        request, not merely to some request.
        """
        depth = 32
        barrier = threading.Barrier(depth)
        linker = make_linker(barrier=barrier)
        server = serve_forever(linker, max_in_flight=depth * 2)
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                for i in range(depth):
                    send_request(
                        sock,
                        "linkEntry",
                        {
                            "reqid": f"q{i}",
                            "text": f"t{i} mentions a planar graph",
                            "classes": "05C10",
                            "format": "html",
                        },
                    )
                seen = {}
                for _ in range(depth):
                    response = read_response(sock)
                    assert response.ok, response.error
                    seen[response.fields["reqid"]] = response.fields["body"]
            assert set(seen) == {f"q{i}" for i in range(depth)}
            for i in range(depth):
                assert seen[f"q{i}"].startswith(f"t{i} ")
        finally:
            server.shutdown()
            server.server_close()

    def test_out_of_order_completion(self) -> None:
        """A fast read overtakes a slow one on the same connection."""
        gate = threading.Event()
        server = serve_forever(make_linker(gate=gate))
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                send_request(
                    sock,
                    "linkEntry",
                    {"reqid": "slow", "text": "planar graph", "format": "html"},
                )
                send_request(sock, "ping", {"reqid": "fast"})
                first = read_response(sock)
                assert first.fields["reqid"] == "fast"
                gate.set()
                second = read_response(sock)
                assert second.fields["reqid"] == "slow"
                assert second.ok
        finally:
            gate.set()
            server.shutdown()
            server.server_close()

    def test_untagged_requests_stay_fifo_and_unstamped(self) -> None:
        """A legacy client (no reqid) sees the old serial behaviour."""
        server = serve_forever(make_linker())
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                send_request(sock, "ping")
                send_request(sock, "describe")
                pong = read_response(sock)
                assert pong.method == "ping" and "reqid" not in pong.fields
                described = read_response(sock)
                assert described.method == "describe"
                assert described.fields["objects"] == "30"
        finally:
            server.shutdown()
            server.server_close()

    def test_writes_keep_fifo_even_when_tagged(self) -> None:
        """A tagged mutation runs on the serial path, in arrival order,
        and still echoes its reqid (stamped by the dispatcher)."""
        server = serve_forever(make_linker())
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                send_request(
                    sock, "removeObject", {"reqid": "w1", "objectid": "1"}
                )
                send_request(sock, "ping", {"reqid": "r1"})
                first = read_response(sock)
                assert first.method == "removeObject"
                assert first.fields["reqid"] == "w1"
                second = read_response(sock)
                assert second.fields["reqid"] == "r1"
        finally:
            server.shutdown()
            server.server_close()

    def test_pipeline_backlog_sheds_with_reqid(self) -> None:
        """Past pipeline_depth (= max_in_flight), tagged reads shed
        retryably — and the shed response still carries the request's
        reqid."""
        gate = threading.Event()
        server = serve_forever(make_linker(gate=gate), max_in_flight=2)
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                for name in ("a", "b"):
                    send_request(
                        sock,
                        "linkEntry",
                        {"reqid": name, "text": "planar graph", "format": "html"},
                    )
                # Both slots are now blocked inside link_text; the third
                # tagged read must be refused immediately.
                deadline = time.monotonic() + 5
                while server.pipeline_in_flight < server.pipeline_depth:
                    if time.monotonic() > deadline:
                        pytest.fail("pipeline slots never filled")
                    time.sleep(0.01)
                send_request(sock, "ping", {"reqid": "c"})
                shed = read_response(sock)
                assert shed.fields["reqid"] == "c"
                assert shed.code == "overloaded" and shed.retryable
                gate.set()
                tagged = {read_response(sock).fields["reqid"] for _ in range(2)}
                assert tagged == {"a", "b"}
        finally:
            gate.set()
            server.shutdown()
            server.server_close()

    def test_mid_frame_expiry_drains_in_flight_first(self) -> None:
        """A half-sent frame times out without losing the responses of
        requests already dispatched on the same connection."""
        gate = threading.Event()
        server = serve_forever(make_linker(gate=gate), request_timeout=0.5)
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                send_request(
                    sock,
                    "linkEntry",
                    {"reqid": "inflight", "text": "planar graph", "format": "html"},
                )
                # A frame header promising 100 bytes, then silence: the
                # reader is now stuck mid-frame on the request deadline.
                sock.sendall(b"0000000100<request")
                gate.set()
                first = read_response(sock)
                assert first.fields["reqid"] == "inflight"
                assert first.ok
                second = read_response(sock)
                assert second.code == "deadline" and second.retryable
                assert "reqid" not in second.fields
                # The stream is desynchronized; the server closes it.
                assert protocol.read_frame(sock.recv) is None
        finally:
            gate.set()
            server.shutdown()
            server.server_close()


class TestPipelinedClient:
    def test_concurrent_callers_share_one_connection(self) -> None:
        """32 threads on one pipelined client all complete, and the
        barrier proves their requests were concurrently in flight."""
        depth = 32
        barrier = threading.Barrier(depth)
        server = serve_forever(
            make_linker(barrier=barrier),
            max_in_flight=depth * 2,
        )
        client = NNexusClient(*server.address, timeout=30)
        try:
            mux_before = client._mux
            results: dict[int, str] = {}
            errors: list[Exception] = []

            def call(i: int) -> None:
                try:
                    body, _ = client.link_entry(f"t{i} has a planar graph")
                    results[i] = body
                except Exception as exc:  # pragma: no cover - fail below
                    errors.append(exc)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(depth)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            assert len(results) == depth
            for i, body in results.items():
                assert body.startswith(f"t{i} ")
            assert client._mux is mux_before  # never reconnected
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_timeout_spares_connection_and_counts_late_response(self) -> None:
        """One slow request exhausts only its own deadline: the
        connection survives, and the eventual late response is counted
        as unknown instead of crashing the reader."""
        gate = threading.Event()
        server = serve_forever(make_linker(gate=gate))
        client = NNexusClient(
            *server.address,
            timeout=0.3,
            retry=RetryPolicy.none(),
        )
        try:
            mux = client._mux
            with pytest.raises(DeadlineExceededError):
                client.link_entry("planar graph")
            assert client._mux is mux, "timeout must not tear down the mux"
            gate.set()
            deadline = time.monotonic() + 10
            while client.unknown_responses == 0:
                assert time.monotonic() < deadline, "late response never counted"
                time.sleep(0.01)
            assert client.ping()  # same connection still serves
            assert client._mux is mux
        finally:
            gate.set()
            client.close()
            server.shutdown()
            server.server_close()

    def test_fault_closes_socket_before_reconnect(self) -> None:
        """A truncated response kills the mux — its socket is closed
        before the retry builds a fresh connection."""
        faults = FaultInjector()
        linker = make_linker()
        server = serve_forever(linker, faults=faults)
        client = NNexusClient(*server.address, timeout=5, retry=FAST_RETRY)
        try:
            old_mux = client._mux
            old_sock = old_mux._sock
            faults.truncate_response(on_request=1, keep_bytes=7)
            assert client.describe()["objects"] == 30
            assert not old_mux.alive
            assert old_sock.fileno() == -1, "broken socket must be closed"
            assert client._mux is not old_mux
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "inject",
        [
            lambda faults: faults.truncate_response(on_request=1, keep_bytes=7),
            lambda faults: faults.corrupt_response(on_request=1),
            lambda faults: faults.drop_connection(on_request=1),
        ],
        ids=["truncate", "corrupt", "drop"],
    )
    def test_socket_closed_on_transport_failure(self, inject) -> None:
        """Without a retry, every transport fault surfaces as
        ProtocolError with the broken socket already closed, and the
        next call transparently reconnects."""
        faults = FaultInjector()
        server = serve_forever(make_linker(), faults=faults)
        client = NNexusClient(
            *server.address, timeout=5, retry=RetryPolicy.none()
        )
        try:
            old_mux = client._mux
            old_sock = old_mux._sock
            inject(faults)
            with pytest.raises(ProtocolError):
                client.describe()
            assert not old_mux.alive
            assert old_sock.fileno() == -1, "failure path must close the fd"
            assert client.describe()["objects"] == 30
            assert client._mux is not old_mux
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_close_is_prompt_and_reaps_the_reader(self) -> None:
        """close() wakes the reader blocked in recv at once: no wait on
        a join timeout, and no reader thread (or half-open connection)
        outlives the client."""
        server = serve_forever(make_linker())
        try:
            client = NNexusClient(*server.address, timeout=10)
            assert client.ping()
            reader = client._mux._reader
            start = time.perf_counter()
            client.close()
            elapsed = time.perf_counter() - start
            assert elapsed < 0.5, f"close() took {elapsed:.3f}s"
            assert not reader.is_alive()
            assert not client.connected
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "send, match",
        [
            (
                lambda client: client.add_object(
                    CorpusObject(
                        object_id=1,
                        title="t",
                        defines=[f"concept {i}" for i in range(6000)],
                        text="body",
                    )
                ),
                "tags",
            ),
            (lambda client: client.link_entry("a nul \x00 byte"), "XML"),
        ],
        ids=["oversized", "control-char"],
    )
    def test_undecodable_request_fails_locally(self, send, match) -> None:
        """A request the server could not decode (and so could not tag
        a reply to) fails at once with ProtocolError, without a retry
        and without a byte on the wire."""
        listener = socket.create_server(("127.0.0.1", 0))
        received: list[bytes] = []

        def fake_server() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                try:
                    while chunk := conn.recv(65536):
                        received.append(chunk)
                except OSError:
                    pass

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        client = NNexusClient(*listener.getsockname()[:2], timeout=3, retry=FAST_RETRY)
        try:
            start = time.perf_counter()
            with pytest.raises(ProtocolError, match=match):
                send(client)
            assert time.perf_counter() - start < 1.0
            assert client.connected, "a caller bug is not a transport fault"
        finally:
            client.close()
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        assert received == []

    def test_unknown_reqid_is_counted_not_fatal(self) -> None:
        """A response for a reqid nobody sent is dropped with a counter
        bump; the real response still reaches its caller."""
        listener = socket.create_server(("127.0.0.1", 0))

        def fake_server() -> None:
            conn, _ = listener.accept()
            with conn:
                message = protocol.read_frame(conn.recv)
                request = protocol.decode_request(message)
                bogus = protocol.Response(status="ok", method="ping")
                bogus.fields["pong"] = "1"
                bogus.fields["reqid"] = "nobody-sent-this"
                conn.sendall(protocol.frame(protocol.encode_response(bogus)))
                real = protocol.Response(status="ok", method="ping")
                real.fields["pong"] = "1"
                real.fields["reqid"] = request.fields["reqid"]
                conn.sendall(protocol.frame(protocol.encode_response(real)))
                # Hold the connection until the client hangs up.
                conn.settimeout(10)
                try:
                    conn.recv(1)
                except (TimeoutError, OSError):
                    pass

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        client = NNexusClient(host, port, timeout=10)
        try:
            assert client.ping()
            assert client.unknown_responses == 1
        finally:
            client.close()
            listener.close()
            thread.join(timeout=10)

    def test_describe_tolerates_reqid_echo(self) -> None:
        """describe() must not int()-parse the transport's reqid echo."""
        server = serve_forever(make_linker())
        client = NNexusClient(*server.address, timeout=10)
        try:
            stats = client.describe()
            assert stats["objects"] == 30
            assert "reqid" not in stats and "traceid" not in stats
        finally:
            client.close()
            server.shutdown()
            server.server_close()

