"""A live socket server survives fuzzed wire frames.

``test_protocol_fuzz.py`` checks that the wire decoders raise only
``ProtocolError``; this suite checks the whole connection handler on a
running :func:`~repro.server.server.serve_forever` server.  Each drawn
input goes out on a fresh connection, which is then half-closed: random
bytes, short or non-numeric frame headers, negative and oversize
lengths, truncated bodies, and framed ``<request>`` XML over every
``protocol.METHODS`` entry (mutating ones included) plus unknown
methods, some ``reqid``-tagged so the pipelined path runs too.

Three things must hold: no connection handler raises (the server's
``handle_error`` is never reached); ``ping`` and ``describe`` still
answer after every batch; and no ``nnexus-pipeline`` executor thread
outlives ``server_close()``.

The example budget is small by default; the large-budget CI step sets
``NNEXUS_MODEL_PROFILE=ci``.
"""

import errno
import os
import socket
import threading
from xml.sax.saxutils import escape, quoteattr

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.ontology.msc import build_small_msc
from repro.server.protocol import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    METHODS,
    Request,
    decode_response,
    encode_request,
    frame,
    read_frame,
)
from repro.server.server import PIPELINED_METHODS, serve_forever

EXAMPLES = 400 if os.environ.get("NNEXUS_MODEL_PROFILE") == "ci" else 30

PIPELINE_THREAD = "nnexus-pipeline"

FIELD_NAMES = (
    "objectid", "text", "classes", "format", "limit", "deep", "traceid",
    "traceparent", "reqid", "policy", "fmt", "object_id",
)
FIELD_VALUES = (
    "", " ", "0", "1", "2", "-1", "99999", "x", "html", "markdown",
    "annotations", "json", "collapsed", "05C10", "05C,11A41", "planar graph",
    "every planar graph is sparse", "permit", "forbid *", "1e3", "\x00",
    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
)

values = st.one_of(st.sampled_from(FIELD_VALUES), st.text(max_size=12))
methods = st.one_of(
    st.sampled_from(METHODS),
    st.sampled_from(("nope", "", "LINKENTRY", "getObject", "ping ")),
    st.text(max_size=8),
)


def _element(tag: str, text: str) -> str:
    return f"<{tag}>{escape(text)}</{tag}>"


@st.composite
def object_xml(draw: st.DrawFn) -> str:
    """An ``<object>`` element with fuzzed id, labels, classes and text."""
    object_id = draw(st.one_of(st.integers(-2, 40).map(str), values))
    parts = [_element("title", draw(values))]
    parts += [_element("concept", text) for text in draw(st.lists(values, max_size=3))]
    parts += [_element("class", text) for text in draw(st.lists(values, max_size=2))]
    parts.append(_element("body", draw(values)))
    if draw(st.booleans()):
        parts.append(_element("policy", draw(values)))
    return f"<object id={quoteattr(object_id)}>{''.join(parts)}</object>"


@st.composite
def request_xml(
    draw: st.DrawFn, method_names: st.SearchStrategy[str] = methods, tagged: bool = False
) -> str:
    """A ``<request>`` document, escaped so the XML itself is well formed.

    ``tagged`` adds a ``reqid``, which sends a read to the executor.
    """
    fields = draw(
        st.dictionaries(st.sampled_from(FIELD_NAMES), values, max_size=4)
    )
    if tagged:
        fields["reqid"] = str(draw(st.integers(0, 999)))
    body = "".join(_element(name, text) for name, text in fields.items())
    if draw(st.booleans()):
        body += draw(object_xml())
    return f"<request method={quoteattr(draw(method_names))}>{body}</request>"


def _header(length: int) -> bytes:
    return f"{length:0{FRAME_HEADER_BYTES}d}".encode("ascii")


headers = st.one_of(
    st.binary(max_size=FRAME_HEADER_BYTES),
    st.text("0123456789-+ x.", max_size=FRAME_HEADER_BYTES).map(str.encode),
    st.integers(-(10 ** (FRAME_HEADER_BYTES - 1)) + 1, -1).map(_header),
    st.integers(MAX_FRAME_BYTES + 1, 10**FRAME_HEADER_BYTES - 1).map(_header),
)


@st.composite
def truncated(draw: st.DrawFn) -> bytes:
    """A well-framed request cut short of its declared length."""
    whole = frame(draw(request_xml()))
    return whole[: draw(st.integers(0, len(whole) - 1))]


inputs = st.one_of(
    st.binary(max_size=200),
    st.tuples(headers, st.binary(max_size=40)).map(b"".join),
    truncated(),
    request_xml().map(frame),
    st.lists(request_xml().map(frame), min_size=2, max_size=4).map(b"".join),
    st.lists(
        request_xml(st.sampled_from(sorted(PIPELINED_METHODS)), tagged=True).map(frame),
        min_size=1,
        max_size=4,
    ).map(b"".join),
)


def exchange(address: tuple[str, int], data: bytes) -> None:
    """Send ``data``, half-close, and read until the server closes."""
    with socket.create_connection(address, timeout=30) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(65536):
                pass
        except ConnectionError:
            # The server stopped reading a frame it refused and closed
            # with our bytes unread.
            pass
        except OSError as exc:
            if exc.errno != errno.ENOTCONN:  # same, seen at shutdown()
                raise


def call(address: tuple[str, int], method: str):
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(frame(encode_request(Request(method))))
        message = read_frame(sock.recv)
    assert message is not None, f"{method} got no reply"
    return decode_response(message)


def _pipeline_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith(PIPELINE_THREAD)]


def test_live_server_survives_fuzzed_frames() -> None:
    linker = NNexus(
        scheme=build_small_msc(), metrics=MetricsRegistry(), tracer=Tracer(seed=1)
    )
    linker.add_objects(sample_corpus())
    server = serve_forever(linker, request_timeout=2.0, idle_timeout=5.0)
    handler_errors: list[object] = []
    original = server.handle_error

    def record_handler_error(request, client_address) -> None:
        handler_errors.append(client_address)
        original(request, client_address)

    server.handle_error = record_handler_error  # type: ignore[method-assign]

    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batch=st.lists(inputs, min_size=1, max_size=6))
    def survives(batch: list[bytes]) -> None:
        for data in batch:
            exchange(server.address, data)
        assert handler_errors == []
        assert call(server.address, "ping").fields.get("pong") == "1"
        assert call(server.address, "describe").ok

    try:
        survives()
    finally:
        server.shutdown()
        server.server_close()
    assert _pipeline_threads() == []
