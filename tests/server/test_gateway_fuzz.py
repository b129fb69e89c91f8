"""Fuzz the untrusted text the gateway and the policy parser accept.

The HTTP gateway parses request bytes from any peer.  Fed any bytes,
one connection's handler must answer each request with an ``HTTP/1.1``
status line other than 500, or close quietly, and must raise nothing
into the server's ``handle_error``; a request that reaches the routes
carries the path and query ``urlsplit`` gives its raw target.  A live
gateway fed batches of fuzzed requests, of well-formed posts whose JSON
fields have the wrong types, and of posts with a header line that is
not ``name: value`` or holds a bare CR (each of these two answered with
one 400), must do the same and still answer ``GET /health`` with 200.

Policy text reaches ``parse_policy`` from ``addObject`` requests and
corpus files; on any text only ``PolicyParseError`` may escape.

The example budget is small by default; the large-budget CI step sets
``NNEXUS_MODEL_PROFILE=ci``.
"""

import json
import os
import re
import socket
import sys
from urllib.parse import urlsplit

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import PolicyParseError
from repro.core.linker import NNexus
from repro.core.policies import parse_policy
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.server.http_gateway import NNexusHttpGateway, serve_http

CI = os.environ.get("NNEXUS_MODEL_PROFILE") == "ci"
PARSE_EXAMPLES = 10_000 if CI else 200
LIVE_EXAMPLES = 150 if CI else 25

HTTP_PIECES = (
    "GET", "POST", "PUT", "HEAD", " ", "  ", "\t", "\r\n", "\n", "\r", "\x00",
    "/", "/health", "/ready", "/describe", "/metrics", "/entry/2", "/entry/",
    "/debug/traces", "/debug/profile", "/link", "/annotations",
    "?", "?limit=", "?format=collapsed", "#", "%", "%zz", "&", "=",
    "http://", "https://a", "//", "[", "]", "http://[x", "http://[::1]:80/",
    "http://a:b/", "\xff", "\xe9", " ",
    "HTTP/1.1", "HTTP/1.0", "HTTP/9",
    "Host: a", "Content-Length: ", "Content-Length: 2", "Content-Length: -1",
    "Content-Length: x", "Connection: close", "Connection: keep-alive",
    "traceparent: 00-", ":", "a" * 300, "9" * 30,
    '{"text": "a planar graph"}', "{", "}",
)

http_texts = st.lists(
    st.one_of(st.sampled_from(HTTP_PIECES), st.text(max_size=4)),
    max_size=30,
).map(lambda pieces: "".join(pieces).encode("latin-1", "replace"))


@st.composite
def request_shaped(draw: st.DrawFn) -> bytes:
    """A request line and headers with fuzzed parts, so the fuzz also
    reaches past the request-line checks."""
    method = draw(st.sampled_from(["GET", "POST", "DELETE"]))
    # Absolute-form and authority-like prefixes reach urlsplit's netloc
    # checks, which reject unbalanced IPv6 brackets.
    prefix = draw(st.sampled_from([b"", b"/", b"//", b"http://", b"http://[", b"//]"]))
    target = prefix + draw(http_texts)
    target = target.replace(b" ", b"").replace(b"\r", b"").replace(b"\n", b"")
    headers = draw(st.lists(http_texts.map(lambda h: h.replace(b"\n", b"")), max_size=4))
    body = draw(st.binary(max_size=64))
    head = b"\r\n".join([method.encode() + b" " + (target or b"/") + b" HTTP/1.1", *headers])
    return head + b"\r\n\r\n" + body


raw_requests = st.one_of(http_texts, request_shaped(), st.binary(max_size=200))

#: The JSON fields each POST route reads; each must be a string, except
#: ``classes``, a list of strings.
ROUTE_FIELDS = {
    "/link": ("text", "classes", "format"),
    "/annotations": ("text", "classes", "source"),
}
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False)
)
_NON_STRINGS = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=2),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
)


@st.composite
def wrongly_typed_post(draw: st.DrawFn) -> bytes:
    """A well-formed POST whose JSON body gives one field the wrong type."""
    path = draw(st.sampled_from(sorted(ROUTE_FIELDS)))
    name = draw(st.sampled_from(ROUTE_FIELDS[path]))
    if name == "classes":
        value = draw(
            st.one_of(
                _SCALARS,
                st.text(max_size=6),
                st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
                st.lists(_NON_STRINGS, min_size=1, max_size=3),
            )
        )
    else:
        value = draw(_NON_STRINGS)
    body = json.dumps({"text": "a planar graph", name: value}).encode()
    head = f"POST {path} HTTP/1.1\r\nHost: a\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


#: A request smuggled in as the body of a request with a bad header line.
SMUGGLED = b"GET /health HTTP/1.1\r\nHost: a\r\n\r\n"
_HEADER_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)


@st.composite
def bad_header_post(draw: st.DrawFn) -> bytes:
    """A POST with one header line that is not ``name: value`` or holds
    a bare CR, placed among a Host and a Content-Length whose body is
    another request."""
    bad = draw(
        st.one_of(
            st.text(  # no colon (a leading space makes it a continuation)
                alphabet=st.characters(
                    min_codepoint=32, max_codepoint=255, blacklist_characters=":"
                ),
                min_size=1,
                max_size=12,
            ),
            _HEADER_NAMES.map(lambda name: f"{name} : 1"),
            _HEADER_NAMES.map(lambda name: f" {name}: 1"),
            _HEADER_NAMES.map(lambda name: f"From {name}"),
            st.builds(  # a bare CR, inside a value or before a second header
                lambda name, after: f"{name}: a\r{after}",
                _HEADER_NAMES,
                st.sampled_from(["", "b", " ", "Content-Length: 0", "X-Pad: 1"]),
            ),
        )
    )
    lines = ["Host: a", f"Content-Length: {len(SMUGGLED)}"]
    lines.insert(draw(st.integers(0, len(lines))), bad)
    head = "\r\n".join(["POST /link HTTP/1.1", *lines]) + "\r\n\r\n"
    return head.encode("latin-1") + SMUGGLED


def make_linker() -> NNexus:
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    return linker


def status_of(reply: bytes) -> int:
    line = reply.split(b"\r\n", 1)[0]
    assert line.startswith(b"HTTP/1.1 "), reply[:200]
    return int(line.split()[1])


def read_until_closed(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # closed with our bytes unread
            chunk = b""
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class _Recorded:
    """Hooks on a gateway: the requests routed and the unhandled errors."""

    def __init__(self, gateway: NNexusHttpGateway) -> None:
        self.routed: list[tuple[str, str, str]] = []
        self.unhandled: list[BaseException] = []
        respond = gateway._respond

        def recording_respond(handler) -> None:
            if handler.refusal is None:
                target = handler.requestline.split()[1]
                self.routed.append((target, handler.path, handler.query))
            respond(handler)

        def handle_error(request, client_address) -> None:
            self.unhandled.append(sys.exc_info()[1])

        gateway._respond = recording_respond
        gateway.handle_error = handle_error


@pytest.fixture(scope="module")
def parse_gateway():
    """A bound gateway that never serves: each test example accepts one
    connection and runs its handler in the test's thread."""
    instance = NNexusHttpGateway(make_linker())
    recorded = _Recorded(instance)
    yield instance, recorded
    instance.server_close()


def handle_connection(gateway: NNexusHttpGateway, data: bytes) -> bytes:
    """Send ``data`` and half-close; run the handler to the end; read."""
    with socket.create_connection(gateway.address, timeout=10) as client:
        client.sendall(data)
        client.shutdown(socket.SHUT_WR)
        request, address = gateway.get_request()
        # What the accept loop runs on a connection thread: the handler,
        # handle_error on an exception, then shutdown_request.
        gateway.process_request_thread(request, address)
        return read_until_closed(client)


@settings(
    max_examples=PARSE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=raw_requests)
def test_handler_answers_or_closes_on_any_bytes(parse_gateway, data: bytes) -> None:
    gateway, recorded = parse_gateway
    recorded.routed.clear()
    recorded.unhandled.clear()
    reply = handle_connection(gateway, data)
    assert recorded.unhandled == []
    if reply:
        assert reply.startswith(b"HTTP/1.1 "), reply[:200]
    for line in re.findall(rb"HTTP/1\.1 (\d{3}) ", reply):
        assert int(line) != 500, reply[:200]
    for target, path, query in recorded.routed:
        parts = urlsplit(target)
        assert (path, query) == (parts.path, parts.query)


@pytest.fixture(scope="module")
def gateway():
    instance = serve_http(make_linker())
    recorded = _Recorded(instance)
    yield instance, recorded
    instance.shutdown()
    instance.server_close()


def exchange(gateway, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the gateway closes."""
    with socket.create_connection(gateway.address, timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        return read_until_closed(sock)


def test_unparsable_target_answers_400(gateway) -> None:
    instance, recorded = gateway
    recorded.unhandled.clear()
    reply = exchange(instance, b"GET http://[x HTTP/1.1\r\nHost: a\r\n\r\n")
    assert status_of(reply) == 400
    body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
    assert "bad request target" in body["error"]
    assert recorded.unhandled == []


@settings(
    max_examples=LIVE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    batch=st.lists(
        st.one_of(
            raw_requests.map(lambda data: (data, None)),
            wrongly_typed_post().map(lambda data: (data, 400)),
            bad_header_post().map(lambda data: (data, 400)),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_live_gateway_survives_fuzzed_requests(gateway, batch) -> None:
    instance, recorded = gateway
    recorded.routed.clear()
    recorded.unhandled.clear()
    for data, expected in batch:
        reply = exchange(instance, data)
        if expected is not None:
            assert status_of(reply) == expected, reply[:300]
            assert reply.count(b"HTTP/1.1 ") == 1, reply[:300]
        elif reply:
            assert status_of(reply) != 500
    assert recorded.unhandled == []
    health = exchange(instance, b"GET /health HTTP/1.1\r\nHost: a\r\n\r\n")
    assert status_of(health) == 200


@settings(
    max_examples=PARSE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    text=st.one_of(
        st.text(),
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["permit", "forbid", "PERMIT", "*", '"', '""', '" "', "#", " ",
                     "\n", "\r", "\t", "05C", "05Cxx", "-XX", "xx", "11A41",
                     "planar graph", '"even number"', "'s", " ", "\x00"]
                ),
                st.text(max_size=4),
            ),
            max_size=30,
        ).map("".join),
    )
)
def test_parse_policy_raises_only_policy_parse_error(text: str) -> None:
    try:
        parse_policy(text)
    except PolicyParseError:
        pass
