"""Fault-injection suite: the client/server stack under induced failure.

Every test scripts a :class:`~repro.server.faults.FaultInjector` against
a live server and asserts the retrying client (or a raw socket) observes
exactly the hardened behavior: transparent retries for transient faults,
immediate surfacing of permanent ones, structured shedding under load,
and connections that survive bad requests.
"""

import select
import socket
import threading
import time

import pytest

from repro.core.errors import ProtocolError
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.server import protocol
from repro.server.client import NNexusClient, RemoteError
from repro.server.faults import FaultInjector
from repro.server.resilience import RetryPolicy
from repro.server.server import serve_forever

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def make_server(**kwargs):
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    return serve_forever(linker, **kwargs)


@pytest.fixture()
def faults():
    return FaultInjector()


@pytest.fixture()
def server(faults):
    instance = make_server(faults=faults)
    yield instance
    instance.shutdown()
    instance.server_close()


class TestClientRetries:
    def test_survives_dropped_connection(self, server, faults) -> None:
        """A mid-call disconnect is retried on a fresh connection."""
        faults.drop_connection(on_request=1)
        with NNexusClient(*server.address, retry=FAST_RETRY) as client:
            assert client.ping()
        assert faults.pending == 0
        assert faults.requests_seen == 2  # the drop plus the retry

    def test_survives_truncated_frame(self, server, faults) -> None:
        """A half-written response is treated as a dead connection."""
        faults.truncate_response(on_request=1, keep_bytes=7)
        with NNexusClient(*server.address, retry=FAST_RETRY) as client:
            body, links = client.link_entry(
                "every planar graph is sparse", classes=["05C10"]
            )
        assert links[0]["phrase"] == "planar graph"
        assert faults.requests_seen == 2

    def test_survives_corrupted_frame(self, server, faults) -> None:
        faults.corrupt_response(on_request=1)
        with NNexusClient(*server.address, retry=FAST_RETRY) as client:
            assert client.describe()["objects"] == 30
        assert faults.requests_seen == 2

    def test_survives_injected_overload(self, server, faults) -> None:
        """A retryable 'overloaded' reply is retried on the same connection."""
        faults.force_error("overloaded", on_request=1)
        with NNexusClient(*server.address, retry=FAST_RETRY) as client:
            assert client.ping()
        assert faults.requests_seen == 2

    def test_nonretryable_error_is_not_retried(self, server, faults) -> None:
        faults.force_error("bad-request", on_request=1)
        with NNexusClient(*server.address, retry=FAST_RETRY) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.ping()
            assert excinfo.value.code == "bad-request"
            assert not excinfo.value.retryable
            # Exactly one request reached the server: no hidden retry.
            assert faults.requests_seen == 1
            # The connection is still healthy for the next call.
            assert client.ping()
        assert faults.requests_seen == 2

    def test_retries_exhausted_surfaces_error(self, server, faults) -> None:
        faults.drop_connection(on_request=1)
        faults.drop_connection(on_request=2)
        policy = RetryPolicy(max_attempts=2, base_delay=0.01)
        with NNexusClient(*server.address, retry=policy) as client:
            with pytest.raises((ProtocolError, ConnectionError, OSError)):
                client.ping()

    def test_no_retry_policy_fails_fast(self, server, faults) -> None:
        faults.force_error("overloaded", on_request=1)
        with NNexusClient(*server.address, retry=RetryPolicy.none()) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.ping()
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retryable

    def test_close_is_idempotent(self, server) -> None:
        client = NNexusClient(*server.address, retry=FAST_RETRY)
        assert client.ping()
        client.close()
        client.close()
        assert not client.connected
        # A closed client reconnects transparently on the next call.
        assert client.ping()
        client.close()


class TestOverloadShedding:
    def test_saturated_server_sheds_with_structured_error(self) -> None:
        """Past max_in_flight the server answers 'overloaded', not queueing."""
        server = make_server(max_in_flight=1)
        try:
            release = threading.Event()
            entered = threading.Event()
            original = server.linker.link_text

            def slow_link_text(text, source_classes=()):
                entered.set()
                release.wait(10)
                return original(text, source_classes=source_classes)

            server.linker.link_text = slow_link_text
            result: dict = {}

            def occupant() -> None:
                with NNexusClient(*server.address, retry=RetryPolicy.none()) as c:
                    result["links"] = c.link_entry("a tree", classes=["05C05"])[1]

            thread = threading.Thread(target=occupant)
            thread.start()
            assert entered.wait(5)
            try:
                with NNexusClient(
                    *server.address, retry=RetryPolicy.none()
                ) as client:
                    with pytest.raises(RemoteError) as excinfo:
                        client.ping()
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.retryable
            finally:
                release.set()
            thread.join(timeout=10)
            # The admitted request was served to completion.
            assert result["links"], "occupant request should have succeeded"
        finally:
            server.shutdown()
            server.server_close()

    def test_draining_server_sheds(self) -> None:
        server = make_server()
        client = NNexusClient(*server.address, retry=RetryPolicy.none())
        try:
            server._draining.set()
            with pytest.raises(RemoteError) as excinfo:
                client.ping()
            assert excinfo.value.code == "overloaded"
        finally:
            client.close()
            server.shutdown()
            server.server_close()


class TestProtocolRobustness:
    def test_unknown_method_keeps_connection_usable(self, server) -> None:
        """An unknown method gets an error reply, not a dead connection."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(protocol.frame('<request method="selfDestruct"/>'))
            reply = protocol.decode_response(protocol.read_frame(sock.recv))
            assert reply.status == "error"
            assert reply.code == "bad-request"
            assert not reply.retryable
            # Same connection, next request: still served.
            sock.sendall(protocol.frame('<request method="ping"/>'))
            reply = protocol.decode_response(protocol.read_frame(sock.recv))
            assert reply.ok
            assert reply.fields["pong"] == "1"

    def test_doctype_request_is_bad_request(self, server) -> None:
        host, port = server.address
        hostile = (
            '<!DOCTYPE r [<!ENTITY a "AAAA">]>'
            '<request method="linkEntry"><text>&a;&a;</text></request>'
        )
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(protocol.frame(hostile))
            reply = protocol.decode_response(protocol.read_frame(sock.recv))
            assert reply.status == "error"
            assert reply.code == "bad-request"
            assert "DOCTYPE" in reply.error

    def test_tag_flood_is_bad_request_and_server_keeps_serving(self, server) -> None:
        host, port = server.address
        flood = (
            '<request method="linkEntry"><text>'
            + "<f/>" * (protocol.MAX_REQUEST_TAGS + 1)
            + "</text></request>"
        )
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(protocol.frame(flood))
            reply = protocol.decode_response(protocol.read_frame(sock.recv))
            assert reply.status == "error"
            assert reply.code == "bad-request"
            assert "tags" in reply.error
            sock.sendall(protocol.frame('<request method="ping"/>'))
            reply = protocol.decode_response(protocol.read_frame(sock.recv))
            assert reply.ok
        with NNexusClient(host, port) as client:
            __, links = client.link_entry("every planar graph is sparse")
            assert links

    def test_escape_dense_link_entry_is_answered(self, server) -> None:
        # 16,000 escaped regions once cost ~45 s of quadratic scanning,
        # past the client's 10 s socket timeout.
        text = "every planar graph is sparse " + "word $x$ " * 16_000
        host, port = server.address
        with NNexusClient(host, port, retry=RetryPolicy.none()) as client:
            __, links = client.link_entry(text)
            assert links
            assert client.ping()

    def test_non_utf8_frame_closes_without_traceback(self, server, capfd) -> None:
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"0000000002\xff\xfe")
            assert sock.recv(65536) == b""
        with NNexusClient(host, port) as client:
            assert client.ping()
        assert "Traceback" not in capfd.readouterr().err

    def test_missing_objectid_is_bad_request(self, server) -> None:
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(protocol.frame('<request method="removeObject"/>'))
            reply = protocol.decode_response(protocol.read_frame(sock.recv))
            assert reply.status == "error"
            assert reply.code == "bad-request"
            assert "objectid" in reply.error

    def test_garbage_objectid_is_bad_request(self, server) -> None:
        host, port = server.address
        message = protocol.encode_request(
            protocol.Request("setPolicy", fields={"objectid": "banana", "policy": ""})
        )
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(protocol.frame(message))
            reply = protocol.decode_response(protocol.read_frame(sock.recv))
            assert reply.status == "error"
            assert reply.code == "bad-request"
            assert "banana" in reply.error

    def test_internal_failure_reports_internal_code(self, server) -> None:
        """A crash inside a handler becomes code='internal', not silence."""

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        server.linker.describe = boom
        with NNexusClient(*server.address, retry=RetryPolicy.none()) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.describe()
        assert excinfo.value.code == "internal"
        assert not excinfo.value.retryable


class TestDeadlines:
    def test_slow_loris_connection_is_cut(self) -> None:
        """A trickled header cannot pin a handler thread."""
        server = make_server(request_timeout=0.2, idle_timeout=5.0)
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"00000")  # half a frame header, then stall
                sock.settimeout(5)
                started = time.monotonic()
                data = b""
                try:
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        data += chunk
                except (TimeoutError, OSError):
                    pytest.fail("server did not close the slow-loris connection")
                assert time.monotonic() - started < 4
                if data:  # best-effort deadline reply before the close
                    reply = protocol.decode_response(
                        protocol.read_frame(_BufferedRecv(data))
                    )
                    assert reply.code == "deadline"
                    assert reply.retryable
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "head, drip",
        [(b"", b"0000000100"), (b"0000000100", b"<" * 100)],
        ids=["header-drip", "payload-drip"],
    )
    def test_drip_is_cut_at_the_request_deadline(self, head, drip) -> None:
        """The deadline bounds the whole frame, not each read: one byte
        per 0.1 s is cut like a stall."""
        server = make_server(request_timeout=0.3, idle_timeout=5.0)
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(head)
                started = time.monotonic()
                for byte in drip:  # one byte every 0.1 s until the server answers
                    readable, __, __ = select.select([sock], [], [], 0.1)
                    if readable:
                        break
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:
                        break
                data = b""
                try:
                    while chunk := sock.recv(4096):
                        data += chunk
                except ConnectionResetError:  # closed with our drip unread
                    pass
                assert time.monotonic() - started < 1.0
                if data:  # best-effort deadline reply before the close
                    reply = protocol.decode_response(
                        protocol.read_frame(_BufferedRecv(data))
                    )
                    assert reply.code == "deadline"
        finally:
            server.shutdown()
            server.server_close()

    def test_idle_connection_is_reaped(self) -> None:
        server = make_server(request_timeout=5.0, idle_timeout=0.2)
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.settimeout(5)
                assert sock.recv(4096) == b""  # closed without a reply
        finally:
            server.shutdown()
            server.server_close()

    def test_client_deadline_bounds_retries(self, server, faults) -> None:
        from repro.core.errors import DeadlineExceededError

        faults.drop_connection(on_request=1)
        faults.drop_connection(on_request=2)
        faults.drop_connection(on_request=3)
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.5, jitter=0.0, deadline=0.3
        )
        with NNexusClient(*server.address, retry=policy) as client:
            with pytest.raises(DeadlineExceededError):
                client.ping()


class TestGracefulShutdown:
    def test_drains_in_flight_requests(self) -> None:
        server = make_server()
        release = threading.Event()
        entered = threading.Event()
        original = server.linker.link_text

        def slow_link_text(text, source_classes=()):
            entered.set()
            release.wait(10)
            return original(text, source_classes=source_classes)

        server.linker.link_text = slow_link_text
        result: dict = {}

        def occupant() -> None:
            with NNexusClient(*server.address, retry=RetryPolicy.none()) as c:
                result["links"] = c.link_entry("a tree", classes=["05C05"])[1]

        thread = threading.Thread(target=occupant)
        thread.start()
        assert entered.wait(5)

        done = threading.Event()
        drained: dict = {}

        def shutter() -> None:
            drained["ok"] = server.shutdown_gracefully(drain_timeout=10)
            done.set()

        threading.Thread(target=shutter).start()
        time.sleep(0.1)
        assert not done.is_set()  # still waiting on the in-flight request
        release.set()
        thread.join(timeout=10)
        assert done.wait(10)
        assert drained["ok"]
        assert result["links"], "in-flight request must complete during drain"


class _BufferedRecv:
    """recv(n) over a captured byte string (for parsing dead-socket data)."""

    def __init__(self, data: bytes) -> None:
        self._data = data

    def __call__(self, count: int) -> bytes:
        chunk, self._data = self._data[:count], self._data[count:]
        return chunk
