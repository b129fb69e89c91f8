"""The NNexus wire protocol: XML requests/responses over sockets.

Section 3.1: "All communications with NNexus are over socket
connections, and all requests and responses with the NNexus server are
in XML format."  We implement the same shape:

Request::

    <request method="linkEntry">
      <text>...entry body...</text>
      <classes>05C10,05C40</classes>
      <format>html</format>
    </request>

Response::

    <response status="ok" method="linkEntry">
      <body>...linked html...</body>
      <links><link phrase="planar graph" target="2" domain="planetmath"
                   url="..."/>...</links>
    </response>

Messages are XML documents framed by a 10-digit length prefix, so
arbitrary text payloads survive the socket unambiguously.  The encoders
write every carriage return as ``&#13;``: XML end-of-line handling
would turn a literal ``\\r\\n`` or ``\\r`` in element text into ``\\n``,
and the link offsets a ``linkEntry`` returns index the client's text.

Supported methods: ``linkEntry``, ``addObject``, ``updateObject``,
``removeObject``, ``setPolicy``, ``describe``, ``getMetrics``,
``getTrace``, ``getRecentTraces``, ``getResourceStats``,
``getProfile``, ``ping``.  ``getMetrics`` answers with a single
``metrics`` field holding the JSON metrics snapshot (see
:mod:`repro.obs.metrics`); ``getTrace``/``getRecentTraces`` answer
with ``trace``/``traces`` fields holding JSON span records (see
:mod:`repro.obs.trace`); ``getResourceStats`` answers with a
``resources`` field holding the JSON per-component memory accounting
(see :mod:`repro.obs.memory`); ``getProfile`` answers with a
``profile`` field holding the sampling profiler's aggregated stacks
(JSON, or collapsed flamegraph text with ``format=collapsed`` — see
:mod:`repro.obs.profile`).

Any request may carry an optional ``traceparent`` field (W3C
trace-context format, ``00-<trace_id>-<span_id>-01``); servers that
understand it continue the caller's trace and stamp the response with
a ``traceid`` field.  Servers and clients that predate the field
ignore it — it is an ordinary optional field, so the wire format is
unchanged.

Any request may also carry an optional ``reqid`` field: an opaque
client-chosen token that a pipelining-aware server echoes back on the
response, so one connection can carry many requests in flight at once
and match responses that complete out of order.  Like ``traceparent``
it is additive: servers that predate the field ignore it, clients that
never send it get responses in strict FIFO order exactly as before.
Read methods tagged with a ``reqid`` may be answered out of order;
mutations always execute and answer in arrival order per connection.
See ``docs/wire-protocol.md`` ("Pipelining") for the full ordering
contract.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ProtocolError
from repro.core.models import CorpusObject, LinkedDocument

__all__ = [
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "frame",
    "read_frame",
    "object_to_xml",
    "object_from_xml",
    "METHODS",
    "ERROR_CODES",
    "RETRYABLE_CODES",
]

METHODS = (
    "linkEntry",
    "addObject",
    "updateObject",
    "removeObject",
    "setPolicy",
    "describe",
    "getMetrics",
    "getTrace",
    "getRecentTraces",
    "getResourceStats",
    "getProfile",
    "ping",
)

FRAME_HEADER_BYTES = 10
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: Most ``<`` characters a request may carry.  The encoders escape every
#: ``<`` in text, so each one starts a tag, and an element with content
#: costs two (open and close): the cap bounds what ``ET.fromstring``
#: builds to about 5,000 elements.  A frame of 4 MB of ``<f/>`` costs
#: ~94 MB of RSS to parse.  An ``addObject`` request fits 4,996 concept,
#: synonym and class entries in total.
MAX_REQUEST_TAGS = 10_000
#: A character XML 1.0 cannot carry, escaped or not: the parser refuses
#: a document holding one.
_XML_ILLEGAL = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
#: Request field names, written as element tags.  ``object`` is the
#: tag of the request's corpus object.
_FIELD_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*\Z")


@dataclass
class Request:
    method: str
    fields: dict[str, str] = field(default_factory=dict)
    obj: CorpusObject | None = None


#: Machine-readable error codes carried on ``status="error"`` responses.
#: ``overloaded`` and ``deadline`` are transient (safe to retry);
#: ``bad-request`` and ``internal`` are not.
ERROR_CODES = ("overloaded", "deadline", "bad-request", "internal")
RETRYABLE_CODES = frozenset({"overloaded", "deadline"})


@dataclass
class Response:
    status: str
    method: str
    fields: dict[str, str] = field(default_factory=dict)
    links: list[dict[str, str]] = field(default_factory=list)
    error: str = ""
    code: str = ""
    retryable: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ---------------------------------------------------------------------------
# CorpusObject <-> XML
# ---------------------------------------------------------------------------


def object_to_xml(obj: CorpusObject) -> ET.Element:
    element = ET.Element("object", {"id": str(obj.object_id), "domain": obj.domain})
    ET.SubElement(element, "title").text = obj.title
    for phrase in obj.defines:
        ET.SubElement(element, "concept").text = phrase
    for phrase in obj.synonyms:
        ET.SubElement(element, "synonym").text = phrase
    for code in obj.classes:
        ET.SubElement(element, "class").text = code
    ET.SubElement(element, "body").text = obj.text
    if obj.linking_policy:
        ET.SubElement(element, "policy").text = obj.linking_policy
    return element


def object_from_xml(element: ET.Element) -> CorpusObject:
    raw_id = element.get("id")
    if raw_id is None:
        raise ProtocolError("<object> requires an id attribute")
    try:
        object_id = int(raw_id)
    except ValueError as exc:
        raise ProtocolError(f"bad object id {raw_id!r}") from exc
    return CorpusObject(
        object_id=object_id,
        title=_text_of(element, "title"),
        defines=[el.text or "" for el in element.findall("concept")],
        synonyms=[el.text or "" for el in element.findall("synonym")],
        classes=[el.text or "" for el in element.findall("class")],
        text=_text_of(element, "body"),
        domain=element.get("domain", "default"),
        linking_policy=_text_of(element, "policy"),
    )


def _text_of(element: ET.Element, tag: str) -> str:
    child = element.find(tag)
    return child.text or "" if child is not None else ""


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def encode_request(request: Request) -> str:
    """Encode a request, refusing one :func:`decode_request` would refuse.

    A server cannot tag its reply to a request it cannot decode, so a
    multiplexing client would only time out on one; it fails here, at
    once, instead.
    """
    if request.method not in METHODS:
        raise ProtocolError(f"unknown method {request.method!r}")
    root = ET.Element("request", {"method": request.method})
    for key, value in request.fields.items():
        if key == "object" or not _FIELD_NAME.match(key):
            raise ProtocolError(f"bad request field name {key!r}")
        ET.SubElement(root, key).text = value
    if request.obj is not None:
        root.append(object_to_xml(request.obj))
    xml_text = _tostring(root)
    _check_tag_count(xml_text)
    illegal = _XML_ILLEGAL.search(xml_text)
    if illegal is not None:
        raise ProtocolError(f"character {illegal.group()!r} cannot be sent in XML")
    return xml_text


def _check_tag_count(xml_text: str) -> None:
    tags = xml_text.count("<")
    if tags > MAX_REQUEST_TAGS:
        raise ProtocolError(
            f"request has {tags} '<' characters (tags), "
            f"more than the {MAX_REQUEST_TAGS} allowed"
        )


def decode_request(xml_text: str) -> Request:
    _check_tag_count(xml_text)
    root = _parse(xml_text)
    if root.tag != "request":
        raise ProtocolError(f"expected <request>, got <{root.tag}>")
    method = root.get("method", "")
    if method not in METHODS:
        raise ProtocolError(f"unknown method {method!r}")
    fields: dict[str, str] = {}
    obj: CorpusObject | None = None
    for child in root:
        if child.tag == "object":
            obj = object_from_xml(child)
        else:
            fields[child.tag] = child.text or ""
    return Request(method=method, fields=fields, obj=obj)


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


def encode_response(response: Response) -> str:
    root = ET.Element("response", {"status": response.status, "method": response.method})
    # Error metadata rides as attributes so pre-existing decoders (which
    # only look at status/method and child elements) stay wire-compatible.
    if response.code:
        root.set("code", response.code)
    if response.retryable:
        root.set("retryable", "1")
    if response.error:
        ET.SubElement(root, "error").text = response.error
    for key, value in response.fields.items():
        ET.SubElement(root, key).text = value
    if response.links:
        links = ET.SubElement(root, "links")
        for link in response.links:
            ET.SubElement(links, "link", {k: str(v) for k, v in link.items()})
    return _tostring(root)


def decode_response(xml_text: str) -> Response:
    root = _parse(xml_text)
    if root.tag != "response":
        raise ProtocolError(f"expected <response>, got <{root.tag}>")
    fields: dict[str, str] = {}
    links: list[dict[str, str]] = []
    error = ""
    for child in root:
        if child.tag == "links":
            links = [dict(link.attrib) for link in child.findall("link")]
        elif child.tag == "error":
            error = child.text or ""
        else:
            fields[child.tag] = child.text or ""
    return Response(
        status=root.get("status", "error"),
        method=root.get("method", ""),
        fields=fields,
        links=links,
        error=error,
        code=root.get("code", ""),
        retryable=root.get("retryable", "") in ("1", "true"),
    )


def links_payload(document: LinkedDocument) -> list[dict[str, Any]]:
    """Serialize a linked document's links for the response."""
    return [
        {
            "phrase": link.source_phrase,
            "target": str(link.target_id),
            "domain": link.target_domain,
            "url": link.url,
            "start": str(link.char_start),
            "end": str(link.char_end),
        }
        for link in document.links
    ]


def _tostring(root: ET.Element) -> str:
    """Serialize ``root``, keeping carriage returns in element text.

    ``ET`` already writes ``\\r`` in attribute values as ``&#13;``; only
    element text carries it raw, and a parser would normalize it away.
    """
    return ET.tostring(root, encoding="unicode").replace("\r", "&#13;")


def _parse(xml_text: str) -> ET.Element:
    # A document type declaration is the only place entities can be
    # declared, and the protocol never needs either.  The encoders above
    # escape every ``<`` in text and write no comments or CDATA, so the
    # literal marker can only come from a hand-built hostile frame.
    if "<!DOCTYPE" in xml_text:
        raise ProtocolError("bad XML: DOCTYPE declarations are not allowed")
    try:
        return ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ProtocolError(f"bad XML: {exc}") from exc


# ---------------------------------------------------------------------------
# Socket framing
# ---------------------------------------------------------------------------


def frame(message: str) -> bytes:
    """Length-prefix a message for the wire."""
    payload = message.encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    return f"{len(payload):0{FRAME_HEADER_BYTES}d}".encode("ascii") + payload


def read_frame(recv: Any) -> str | None:
    """Read one framed message from a socket-like ``recv(n)`` callable.

    Returns ``None`` on clean EOF before a header is read.
    """
    header = _read_exact(recv, FRAME_HEADER_BYTES)
    if header is None:
        return None
    try:
        length = int(header.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"bad frame header {header!r}") from exc
    if length < 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"bad frame length {length}")
    payload = _read_exact(recv, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame payload is not UTF-8: {exc}") from exc


def _read_exact(recv: Any, count: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = recv(remaining)
        if not chunk:
            if not chunks:
                return None  # clean EOF between messages
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
