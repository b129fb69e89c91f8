"""Fuzz the wire decoders: on any input, only ``ProtocolError`` escapes.

The server runs ``read_frame`` and ``decode_request`` on bytes from any
peer, and the client's reader thread runs ``read_frame`` and
``decode_response`` on bytes from the network.  Anything else escaping
them would kill a connection handler or a reader thread with a stray
traceback instead of a clean protocol failure.

Inputs are raw byte strings (framed and unframed) and tag-dense
XML-ish text built from the pieces a hostile peer would reach for:
element names the decoders look for, attributes, entities, character
references, DOCTYPE, CDATA and comment markers.  The example budget is
small by default; the large-budget CI step sets
``NNEXUS_MODEL_PROFILE=ci``.
"""

import io
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import ProtocolError
from repro.server.protocol import (
    FRAME_HEADER_BYTES,
    METHODS,
    decode_request,
    decode_response,
    read_frame,
)

FUZZ_EXAMPLES = 10_000 if os.environ.get("NNEXUS_MODEL_PROFILE") == "ci" else 200

FUZZ_SETTINGS = settings(
    max_examples=FUZZ_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

XMLISH_PIECES = (
    "<", ">", "</", "/>", "=", '"', "'", " ", "\n", "\x00",
    "<request", "</request>", "<response", "</response>",
    "<object", "</object>", "<links>", "<link", "</links>", "<error>",
    "</error>", "<title>", "<concept>", "<body>", "<text>", "<reqid>",
    ' method="', ' status="', ' code="', ' retryable="1"', ' id="',
    ' domain="', "ok", "error", "-1", "9" * 5000,
    "&", "&amp;", "&lt;", "&a;", "&#0;", "&#x10FFFF;", "&#xD800;",
    "<!DOCTYPE", "<!ENTITY", "<![CDATA[", "]]>", "<!--", "-->",
    "<?xml", "?>", "xmlns:p=", "<p:x>",
) + tuple(f'"{method}"' for method in METHODS)

xmlish_texts = st.lists(
    st.one_of(st.sampled_from(XMLISH_PIECES), st.text(max_size=4)),
    max_size=40,
).map("".join)

#: Envelopes the decoders accept, with fuzzed attributes and contents,
#: so the fuzz also reaches past the root-element checks.
request_texts = st.builds(
    '<request method="{}">{}<object id="{}" domain="{}">{}</object></request>'.format,
    st.sampled_from(METHODS),
    xmlish_texts,
    st.one_of(st.text(max_size=6), st.integers().map(str)),
    st.text(max_size=4),
    xmlish_texts,
)
response_texts = st.builds(
    '<response status="{}" method="{}" code="{}" retryable="{}">{}</response>'.format,
    st.sampled_from(("ok", "error", "")),
    st.sampled_from(METHODS),
    st.text(max_size=6),
    st.text(max_size=2),
    xmlish_texts,
)


def _only_protocol_errors(decode, text: str) -> None:
    try:
        decode(text)
    except ProtocolError:
        pass


def _read_all_frames(data: bytes) -> None:
    stream = io.BytesIO(data)
    try:
        while read_frame(stream.read) is not None:
            pass
    except ProtocolError:
        pass


@FUZZ_SETTINGS
@given(st.binary(max_size=64))
def test_read_frame_on_raw_bytes(data: bytes) -> None:
    _read_all_frames(data)


@FUZZ_SETTINGS
@given(st.binary(max_size=48), st.integers(min_value=-2, max_value=2))
def test_read_frame_on_framed_bytes(payload: bytes, skew: int) -> None:
    """A well-formed header whose length is off by a little, over any
    payload bytes (invalid UTF-8 included)."""
    header = f"{len(payload) + skew:0{FRAME_HEADER_BYTES}d}".encode("ascii")
    _read_all_frames(header + payload)


@FUZZ_SETTINGS
@given(st.one_of(xmlish_texts, request_texts))
def test_decode_request_on_xmlish_text(text: str) -> None:
    _only_protocol_errors(decode_request, text)


@FUZZ_SETTINGS
@given(st.one_of(xmlish_texts, response_texts))
def test_decode_response_on_xmlish_text(text: str) -> None:
    _only_protocol_errors(decode_response, text)


@FUZZ_SETTINGS
@given(st.binary(max_size=64))
def test_decoders_on_any_frame_payload(data: bytes) -> None:
    """Whatever ``read_frame`` hands over, decoded as either side."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return  # read_frame raises ProtocolError before any decoder runs
    _only_protocol_errors(decode_request, text)
    _only_protocol_errors(decode_response, text)
