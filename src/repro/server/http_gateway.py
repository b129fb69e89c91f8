"""HTTP/JSON gateway: NNexus as a web service (§3.4).

"NNexus could be deployed as a web service to allow third parties to
link arbitrary documents to particular corpora" — this module is that
deployment: an HTTP/1.1 server exposing the linker as JSON endpoints,
suitable as a drop-in backend for a blog plugin or an on-demand
text-linking bookmarklet.

Endpoints
---------
``GET  /health``                       -> {"status": "ok"} (liveness; never shed)
``GET  /ready``                        -> {"status": "ready"} or 503 (readiness)
``GET  /metrics``                      -> Prometheus text exposition (never shed)
``GET  /debug/traces[?limit=N]``       -> recent traces (never shed)
``GET  /debug/traces/<trace_id>``      -> one trace's spans (never shed)
``GET  /debug/profile[?format=collapsed][&limit=N]`` -> sampling profile (never shed)
``GET  /describe``                     -> corpus statistics
``POST /link``    {"text", "classes": [...], "format"} -> rendered body + links
``POST /annotations`` {"text", "classes": [...], "source"} -> W3C Web Annotations
``GET  /entry/<id>``                   -> entry metadata + rendered HTML

Architecture: the gateway runs on the connection core it shares with
the XML socket server (:mod:`repro.server.core`), one thread per
connection.  That thread parses each request with the standard
library's ``http.server.BaseHTTPRequestHandler``, runs the route, and
keeps the connection alive across requests (a busy caller pays the TCP
setup once).  Each response leaves in one ``sendall``.  Probes
(``/health``, ``/ready``, ``/metrics``, ``/debug/traces``,
``/debug/profile``) answer outside admission control and take no
locks; with a thread per connection no shared pool exists for them to
starve behind.

With a :class:`~repro.obs.trace.Tracer` installed, every non-probe
request runs inside a root span continuing the inbound W3C
``traceparent`` header when present, and responses carry
``x-request-id`` (the trace id) and ``traceparent`` headers.

Errors come back as ``{"error": ...}`` with a 4xx status.  When more
than ``max_in_flight`` requests are in flight, or the gateway is
draining for shutdown (``/ready`` then answers 503 too), work is shed
with **503** and a ``Retry-After`` header instead of queueing
unboundedly.

The gateway shares the linker with whatever else holds it; mutations
stay on the XML socket API (the write path), keeping this surface
read-only.  Reads run concurrently under the linker's readers-writer
lock, the one a socket server on the same linker writes under.
"""

from __future__ import annotations

import http.server
import json
import logging
import re
from http.client import responses as _HTTP_REASONS
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.core.annotations import document_to_annotations
from repro.core.errors import NNexusError, OverloadedError, UnknownObjectError
from repro.core.linker import NNexus
from repro.core.render import renderer_for
from repro.obs.profile import parse_profile_params
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import NULL_SPAN, current_span, parse_trace_limit
from repro.server.core import ServingCore

__all__ = ["NNexusHttpGateway", "serve_http"]

_ENTRY_PATH = re.compile(r"^/entry/(\d+)$")
_TRACE_PATH = re.compile(r"^/debug/traces(?:/([0-9a-fA-F]+))?$")
_MAX_BODY = 8 * 1024 * 1024
_MAX_LINE = 65536
#: Seconds a request has for its headers after its request line, and
#: then for its body (slow-loris); a response has the body's deadline.
_HEADER_TIMEOUT = 10.0
_BODY_TIMEOUT = 30.0
#: Seconds an idle keep-alive connection has to send a request line.
_KEEPALIVE_TIMEOUT = 75.0
#: Seconds advertised in the ``Retry-After`` header when shedding.
_RETRY_AFTER = 1

_ACCESS_LOG = logging.getLogger("nnexus.http")


class _HeaderLines:
    """A connection's reader while the header lines are read from it.

    Notes whether a line holds a CR anywhere but before its final LF.
    """

    __slots__ = ("_rfile", "bare_cr")

    def __init__(self, rfile: Any) -> None:
        self._rfile = rfile
        self.bare_cr = False

    def readline(self, limit: int = -1) -> bytes:
        line = self._rfile.readline(limit)
        if b"\r" in line.removesuffix(b"\n").removesuffix(b"\r"):
            self.bare_cr = True
        return line


class _Handler(http.server.BaseHTTPRequestHandler):
    """One connection: read, route and answer its requests in turn.

    The standard library parses the request line and headers; this
    class adds the per-phase deadlines, the target and body checks, and
    the routes.  ``do_GET``/``do_POST`` hold admission, spans and error
    mapping, and the REP104 (handlers open a span) and REP105
    (response-surface extraction) analyses keep their handles on these
    names.  ``path`` and ``query`` are the target as ``urlsplit`` splits
    it, and ``body`` is the request body.
    """

    server: "NNexusHttpGateway"
    protocol_version = "HTTP/1.1"
    # Every response is one write; without TCP_NODELAY, Nagle plus the
    # peer's delayed ACK can stall a keep-alive exchange for ~40 ms.
    disable_nagle_algorithm = True

    query = ""
    body = b""
    #: (status, message) of a request refused before routing.
    refusal: tuple[int, str] | None = None
    #: True when a header line of the request holds a bare CR.
    bare_cr = False

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def handle_one_request(self) -> None:
        """Read one request under the three phase deadlines and answer it.

        A clean EOF, a phase past its deadline or a vanished peer closes
        the connection without a reply; a malformed request is answered
        (see :meth:`send_error`) and closes it.
        """
        self.close_connection = True
        self.refusal = None
        self.requestline = ""
        server, sock = self.server, self.connection
        try:
            server.arm_read(sock, _KEEPALIVE_TIMEOUT)
            self.raw_requestline = self.rfile.readline(_MAX_LINE + 1)
            if not self.raw_requestline or server.read_expired(sock):
                return
            server.arm_read(sock, _HEADER_TIMEOUT)
            if len(self.raw_requestline) > _MAX_LINE:
                self.send_error(400, "request line too long")
                return
            parsed = self.parse_request()
            if server.read_expired(sock):
                return
            if not parsed:
                if self.refusal is None:  # a blank request line
                    self._refuse_request_line()
            elif self._read_target_and_body():
                server.arm_read(sock, None)
                server._respond(self)
        except ConnectionError:
            self.close_connection = True

    def parse_request(self) -> bool:
        """The standard library's parse, noting a bare CR in a header line.

        The email parser behind ``http.client.parse_headers`` splits
        lines at a bare CR as well as at LF, so ``X: a\\rContent-Length:
        5`` would read as two headers; the raw lines are seen only here.
        """
        rfile = self.rfile
        lines = self.rfile = _HeaderLines(rfile)
        try:
            return super().parse_request()
        finally:
            self.rfile = rfile
            self.bare_cr = lines.bare_cr

    def _refuse_request_line(self) -> None:
        self.send_error(400, f"bad request line {self.raw_requestline!r:.100}")

    def _read_target_and_body(self) -> bool:
        """Check the headers, split the target and read the body.

        False once refused or cut off.
        """
        if self.request_version == self.default_request_version:
            self._refuse_request_line()
            return False
        headers = self.headers
        # The email parser behind ``parse_headers`` does not refuse a
        # header line that is not ``name: value``: it ends the headers at
        # one without a colon (the rest, a Content-Length too, becomes a
        # payload), notes a defect for a leading continuation line,
        # folds a later one into the previous value, takes a leading
        # "From " line as an envelope, and ends a line at a bare CR.
        if (
            self.bare_cr
            or headers.defects
            or headers.get_payload()
            or headers.get_unixfrom() is not None
            or any("\r" in value or "\n" in value for value in headers.values())
        ):
            self.send_error(400, "bad header line")
            return False
        # The raw target: Python 3.11+ collapses a leading "//" in
        # ``self.path`` (gh-87389), where urlsplit reads a netloc.
        target = self.requestline.split()[1]
        try:
            split = urlsplit(target)
        except ValueError:  # e.g. an unclosed "[" IPv6 host
            self.send_error(400, f"bad request target {target!r:.100}")
            return False
        self.path, self.query = split.path, split.query
        try:
            length = int(self.headers.get("content-length", "0") or "0")
        except ValueError:
            self.send_error(400, "bad content-length")
            return False
        if length < 0 or length > _MAX_BODY:
            self.send_error(400, "request body must be under 8 MiB")
            return False
        server, sock = self.server, self.connection
        server.arm_read(sock, _BODY_TIMEOUT)
        self.body = self.rfile.read(length) if length else b""
        return len(self.body) == length and not server.read_expired(sock)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Refuse a malformed request with a JSON body, then close.

        Replaces the stdlib's HTML error page, which also omits the
        status line while the request still reads as HTTP/0.9.
        """
        self.close_connection = True
        self.refusal = (code, message or _HTTP_REASONS.get(code, ""))
        self.server._respond(self)

    def log_message(self, format: str, *args: Any) -> None:
        if _ACCESS_LOG.isEnabledFor(logging.DEBUG):
            _ACCESS_LOG.debug(
                "http.access",
                extra={"attrs": {"client": self.address_string(), "message": format % args}},
            )

    def _write(self, status: int, headers: dict[str, str], body: bytes) -> None:
        """Send one response in a single ``sendall``."""
        head = [f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, '')}"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        head.append(f"Content-Length: {len(body)}")
        if self.close_connection:
            head.append("Connection: close")
        server, sock = self.server, self.connection
        server.arm_write(sock, _BODY_TIMEOUT)
        try:
            self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
        finally:
            server.arm_write(sock, None)
        self.log_request(status, len(body))

    def _send_json(
        self,
        payload: Any,
        status: int = 200,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        span = current_span()
        headers = {"Content-Type": "application/json; charset=utf-8"}
        if span is not None and span.is_recording:
            span.set_attribute("http_status", status)
            if status >= 500:
                span.set_status("error", f"http {status}")
            # The trace id doubles as the request id; the traceparent
            # header lets a browser/client continue the same trace.
            headers["x-request-id"] = span.trace_id
            headers["traceparent"] = span.traceparent()
        headers.update(extra_headers or {})
        self._write(status, headers, body)

    def _send_unavailable(self, reason: str) -> None:
        rec = self.server.linker.metrics
        if rec.enabled:
            rec.inc("nnexus_http_shed_total")
        self._send_json(
            {"error": reason, "retryable": True},
            status=503,
            extra_headers={"Retry-After": str(_RETRY_AFTER)},
        )

    def _read_json(self) -> dict[str, Any]:
        if not self.body:
            raise ValueError("request body required (and under 8 MiB)")
        payload = json.loads(self.body)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _request_span(self, name: str, path: str):
        """Root span for a routed request (inert when tracing is off)."""
        trc = self.server.tracer
        if not trc.enabled:
            return NULL_SPAN
        return trc.start_trace(
            name, traceparent=self.headers.get("traceparent"), path=path
        )

    def do_GET(self) -> None:  # noqa: N802 - the http.server API
        # Liveness, readiness, metrics and trace forensics answer
        # outside admission control: a saturated server is still
        # *alive*, and probes, scrapes and debugging must keep working
        # exactly when the server is busiest.
        path = self.path
        if path == "/health":
            self._send_json({"status": "ok"})
            return
        if path == "/ready":
            if not self.server.draining:
                # ``mode`` surfaces storage degradation: a linker that
                # lost its journal keeps serving reads but probes (and
                # load balancers doing write routing) must see it.
                linker = self.server.linker
                payload: dict[str, object] = {"status": "ready", "mode": "serving"}
                if getattr(linker, "read_only", False):
                    payload["mode"] = "read-only"
                    if linker.storage_error:
                        payload["reason"] = linker.storage_error
                self._send_json(payload)
            else:
                self._send_unavailable("draining for shutdown")
            return
        if path == "/metrics":
            body = render_prometheus(self.server.metrics_snapshot()).encode("utf-8")
            self._write(200, {"Content-Type": _PROM_CONTENT_TYPE}, body)
            return
        trace_match = _TRACE_PATH.match(path)
        if trace_match:
            self._serve_traces(trace_match.group(1), self.query)
            return
        if path == "/debug/profile":
            self._serve_profile(self.query)
            return
        with self._request_span("http.GET", path):
            try:
                with self.server.admit():
                    if path == "/describe":
                        self._send_json(self.server.describe())
                    else:
                        match = _ENTRY_PATH.match(path)
                        if match:
                            self._send_json(self.server.entry(int(match.group(1))))
                        else:
                            self._send_json({"error": f"no route {path}"}, status=404)
            except OverloadedError as exc:
                self._send_unavailable(str(exc))
            except UnknownObjectError as exc:
                self._send_json({"error": str(exc)}, status=404)
            except (NNexusError, ValueError) as exc:
                self._send_json({"error": str(exc)}, status=400)

    def do_POST(self) -> None:  # noqa: N802 - the http.server API
        path = self.path
        with self._request_span("http.POST", path):
            try:
                with self.server.admit():
                    payload = self._read_json()
                    if path == "/link":
                        self._send_json(self.server.link(payload))
                    elif path == "/annotations":
                        self._send_json(self.server.annotations(payload))
                    else:
                        self._send_json({"error": f"no route {path}"}, status=404)
            except OverloadedError as exc:
                self._send_unavailable(str(exc))
            except (json.JSONDecodeError, ValueError) as exc:
                self._send_json({"error": str(exc)}, status=400)
            except (NNexusError, KeyError) as exc:
                self._send_json({"error": str(exc)}, status=400)

    def _serve_traces(self, trace_id: str | None, query: str) -> None:
        trc = self.server.tracer
        if not trc.enabled:
            self._send_json({"error": "tracing is not enabled"}, status=404)
            return
        if trace_id:
            trace = trc.get_trace(trace_id.lower())
            if trace is None:
                self._send_json({"error": f"unknown trace {trace_id!r}"}, status=404)
            else:
                self._send_json(trace)
            return
        try:
            limit = parse_trace_limit(parse_qs(query).get("limit", [None])[0])
        except ValueError as exc:
            self._send_json({"error": str(exc)}, status=400)
            return
        self._send_json({"traces": trc.recent_traces(limit)})

    def _serve_profile(self, query: str) -> None:
        profiler = self.server.profiler
        if not profiler.enabled:
            self._send_json({"error": "profiling is not enabled"}, status=404)
            return
        params = parse_qs(query)
        try:
            fmt, limit = parse_profile_params(
                params.get("format", [None])[0], params.get("limit", [None])[0]
            )
        except ValueError as exc:
            self._send_json({"error": str(exc)}, status=400)
            return
        if fmt == "collapsed":
            self._write(
                200,
                {"Content-Type": "text/plain; charset=utf-8"},
                profiler.collapsed().encode("utf-8"),
            )
            return
        self._send_json(profiler.snapshot(max_stacks=limit))


def _text_field(payload: dict[str, Any], name: str, default: str) -> str:
    value = payload.get(name, default)
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a string")
    return value


def _classes_field(payload: dict[str, Any]) -> list[str]:
    classes = payload.get("classes", [])
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ValueError("'classes' must be a list of strings")
    return classes


class NNexusHttpGateway(ServingCore):
    """Read-only HTTP facade over a shared linker (thread per connection).

    Takes :class:`~repro.server.core.ServingCore`'s parameters: requests
    past ``max_in_flight`` get 503 + ``Retry-After: 1``, and the
    profiler is served at ``/debug/profile`` (404 while inert).  The
    core, not ``http.server.HTTPServer``, because the latter's
    ``server_bind`` does a reverse-DNS lookup.

    An idle keep-alive connection closes after 75 s without a request
    line; after it, a request has 10 s for its headers and then 30 s
    for its body, and a response has 30 s to be taken.
    """

    handler = _Handler

    def _respond(self, handler: _Handler) -> None:
        """Answer one request: its refusal, its route, or 405."""
        if handler.refusal is not None:
            status, error = handler.refusal
            handler._send_json({"error": error}, status=status)
        elif handler.command == "GET":
            handler.do_GET()
        elif handler.command == "POST":
            handler.do_POST()
        else:
            handler._send_json(
                {"error": f"method {handler.command} not allowed"}, status=405
            )

    # ------------------------------------------------------------------
    # Operations (concurrent reads under the readers-writer lock)
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """Linker metrics plus this gateway's own saturation gauges."""
        snapshot = self.linker.metrics_snapshot()
        snapshot["gauges"] += [
            {"name": name, "labels": {}, "value": float(value)}
            for name, value in (
                ("nnexus_http_in_flight", self.admission.in_flight),
                ("nnexus_http_max_in_flight", self.admission.max_in_flight),
                ("nnexus_rwlock_writers_waiting", self.rwlock.writers_waiting),
            )
        ]
        return snapshot

    def describe(self) -> dict[str, Any]:
        """Corpus statistics payload."""
        with self.rwlock.read_lock():
            info = self.linker.describe()
        return {
            "objects": info["objects"],
            "concepts": info["concepts"],
            "policies": info["policies"],
        }

    def link(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Link text from a JSON request payload."""
        text = _text_field(payload, "text", "")
        classes = _classes_field(payload)
        fmt = _text_field(payload, "format", "html")
        renderer_for(fmt)  # a bad format fails before linking
        with self.rwlock.read_lock():
            document = self.linker.link_text(text, source_classes=classes)
        body = self.linker.render_document(document, fmt)
        return {
            "body": body,
            "linkcount": document.link_count,
            "links": [
                {
                    "phrase": link.source_phrase,
                    "target": link.target_id,
                    "domain": link.target_domain,
                    "url": link.url,
                    "start": link.char_start,
                    "end": link.char_end,
                }
                for link in document.links
            ],
        }

    def annotations(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Link text and return W3C Web Annotations."""
        text = _text_field(payload, "text", "")
        classes = _classes_field(payload)
        source_iri = _text_field(payload, "source", "urn:nnexus:document")
        with self.rwlock.read_lock():
            document = self.linker.link_text(text, source_classes=classes)
        items = document_to_annotations(document, source_iri=source_iri)
        return {
            "@context": "http://www.w3.org/ns/anno.jsonld",
            "type": "AnnotationCollection",
            "total": len(items),
            "items": items,
        }

    def entry(self, object_id: int) -> dict[str, Any]:
        """Entry metadata plus its linked HTML rendering."""
        with self.rwlock.read_lock():
            obj = self.linker.get_object(object_id)
            html = self.linker.render_object(object_id)
        return {
            "object_id": obj.object_id,
            "title": obj.title,
            "defines": list(obj.defines),
            "synonyms": list(obj.synonyms),
            "classes": list(obj.classes),
            "domain": obj.domain,
            "html": html,
        }


def serve_http(
    linker: NNexus, host: str = "127.0.0.1", port: int = 0, **kwargs: Any
) -> NNexusHttpGateway:
    """Start an :class:`NNexusHttpGateway` on a daemon thread; returns it.

    Keyword arguments are forwarded to the constructor.
    """
    return NNexusHttpGateway(linker, host=host, port=port, **kwargs).start()
