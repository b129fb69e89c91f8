"""Fuzz the untrusted text the gateway and the policy parser accept.

The HTTP gateway parses request bytes from any peer.  On any input,
``NNexusHttpGateway._read_request`` must return ``None`` (clean EOF),
return a request whose target is already split into path and query, or
raise ``ValueError`` (answered with a 400) or ``IncompleteReadError``
(the peer went away).  A live gateway fed batches of fuzzed requests
must answer each with a well-formed status line or close quietly, log
no unhandled exception, and still answer ``GET /health`` with 200.

Policy text reaches ``parse_policy`` from ``addObject`` requests and
corpus files; on any text only ``PolicyParseError`` may escape.

The example budget is small by default; the large-budget CI step sets
``NNEXUS_MODEL_PROFILE=ci``.
"""

import asyncio
import json
import logging
import os
import socket
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


async def _read(data: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await NNexusHttpGateway._read_request(reader)


@settings(
    max_examples=PARSE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=raw_requests)
def test_read_request_returns_a_split_request_or_a_documented_error(data: bytes) -> None:
    try:
        request = asyncio.run(_read(data))
    except (ValueError, asyncio.IncompleteReadError):
        return
    if request is None:
        return
    parts = urlsplit(request.target)
    assert (request.path, request.query) == (parts.path, parts.query)


@pytest.fixture(scope="module")
def gateway():
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    instance = serve_http(linker)
    yield instance
    instance.shutdown()
    instance.server_close()


def exchange(gateway, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the gateway closes."""
    with socket.create_connection(gateway.address, timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with our bytes unread
                chunk = b""
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def status_of(reply: bytes) -> int:
    line = reply.split(b"\r\n", 1)[0]
    assert line.startswith(b"HTTP/1.1 "), reply[:200]
    return int(line.split()[1])


class _Errors(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@pytest.fixture
def loop_errors():
    """Errors the event loop logs, e.g. an unhandled connection exception."""
    handler = _Errors()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    yield handler.messages
    logger.removeHandler(handler)


def test_unparsable_target_answers_400(gateway, loop_errors) -> None:
    reply = exchange(gateway, b"GET http://[x HTTP/1.1\r\nHost: a\r\n\r\n")
    assert status_of(reply) == 400
    body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
    assert "bad request target" in body["error"]
    assert loop_errors == []


@settings(
    max_examples=LIVE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(batch=st.lists(raw_requests, min_size=1, max_size=8))
def test_live_gateway_survives_fuzzed_requests(gateway, loop_errors, batch) -> None:
    for data in batch:
        reply = exchange(gateway, data)
        if reply:
            assert status_of(reply) != 500
    assert loop_errors == []
    health = exchange(gateway, b"GET /health HTTP/1.1\r\nHost: a\r\n\r\n")
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
