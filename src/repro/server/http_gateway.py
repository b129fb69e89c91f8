"""HTTP/JSON gateway: NNexus as a web service (§3.4).

"NNexus could be deployed as a web service to allow third parties to
link arbitrary documents to particular corpora" — this module is that
deployment: an ``asyncio`` HTTP/1.1 server exposing the linker as JSON
endpoints, suitable as a drop-in backend for a blog plugin or an
on-demand text-linking bookmarklet.

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
``POST /annotations`` {"text", "classes": [...]}        -> W3C Web Annotations
``GET  /entry/<id>``                   -> entry metadata + rendered HTML

Architecture: one event loop owns every socket — it parses requests,
writes responses, and keeps connections alive across requests
(HTTP/1.1 keep-alive, so a busy caller pays the TCP+parse setup once,
not per request).  The blocking linker work runs OFF the loop: routed
requests are handed to a bounded thread pool where the synchronous
``_Handler.do_GET``/``do_POST`` route bodies run under the same
admission control, readers-writer lock, and tracing as before.  Probes
(``/health``, ``/ready``, ``/metrics``, ``/debug/traces``,
``/debug/profile``) answer inline on the loop — they touch no locks,
so a saturated executor cannot starve liveness checks, scrapes, or
trace/profile forensics.  While serving, a periodic task on the loop
measures event-loop lag (how late ``asyncio.sleep`` fires) into a
``nnexus_loop_lag_seconds`` histogram — the saturation signal for the
loop itself, which admission gauges cannot see.

With a :class:`~repro.obs.trace.Tracer` installed, every non-probe
request runs inside a root span continuing the inbound W3C
``traceparent`` header when present, and responses carry
``x-request-id`` (the trace id) and ``traceparent`` headers.

Errors come back as ``{"error": ...}`` with a 4xx status.  When more
than ``max_in_flight`` requests are in flight, or the gateway has been
marked not-ready (e.g. while draining for shutdown), work is shed with
**503** and a ``Retry-After`` header instead of queueing unboundedly —
the executor's dispatch slots are bounded too, so a request burst is
refused on the loop rather than piling up behind the thread pool.

The gateway shares the linker with whatever else holds it; mutations
stay on the XML socket API (the write path), keeping this surface
read-only.  Reads run concurrently under a readers-writer lock — pass
the socket server's ``rwlock`` to coordinate with its write path.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.client import responses as _HTTP_REASONS
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.core.annotations import document_to_annotations
from repro.core.errors import NNexusError, OverloadedError, UnknownObjectError
from repro.core.linker import NNexus
from repro.core.render import renderer_for
from repro.obs.logging import get_logger
from repro.obs.profile import NULL_PROFILER, NullProfiler, parse_profile_params
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import NULL_SPAN, NullTracer, current_span, parse_trace_limit
from repro.server.resilience import AdmissionController, ReadersWriterLock

__all__ = ["NNexusHttpGateway", "serve_http"]

_ENTRY_PATH = re.compile(r"^/entry/(\d+)$")
_TRACE_PATH = re.compile(r"^/debug/traces(?:/([0-9a-fA-F]+))?$")
_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADERS = 100
#: Per-read deadline once a request has started arriving (slow-loris).
_HEADER_TIMEOUT = 10.0
_BODY_TIMEOUT = 30.0

_ACCESS_LOG = get_logger("nnexus.http")


@dataclass
class _HttpRequest:
    method: str
    target: str
    version: str
    headers: dict[str, str]
    body: bytes
    #: ``target`` split once, by ``_read_request``.
    path: str
    query: str

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"


@dataclass
class _HttpResponse:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def serialize(self, keep_alive: bool) -> bytes:
        reason = _HTTP_REASONS.get(self.status, "")
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        if not keep_alive:
            headers["Connection"] = "close"
        head = "".join(
            [f"HTTP/1.1 {self.status} {reason}\r\n"]
            + [f"{name}: {value}\r\n" for name, value in headers.items()]
            + ["\r\n"]
        )
        return head.encode("latin-1") + self.body


def _is_probe(path: str) -> bool:
    """Routes that answer inline on the loop, outside admission."""
    return (
        path in ("/health", "/ready", "/metrics", "/debug/profile")
        or _TRACE_PATH.match(path) is not None
    )


class _Handler:
    """Synchronous route logic for one HTTP exchange.

    The ``do_GET``/``do_POST`` bodies deliberately mirror the old
    ``http.server`` handler: admission, spans, and error mapping all
    live here, and the REP104 (handlers open a span) and REP105
    (response-surface extraction) analyses keep their handles on the
    same function names.  Instead of writing to a socket, ``_send_json``
    records the outcome in :attr:`response`; the event loop serializes
    and writes it.
    """

    def __init__(self, server: "NNexusHttpGateway", request: _HttpRequest) -> None:
        self.server = server
        self.request = request
        self.headers = request.headers
        self.response: _HttpResponse | None = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
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
        self.response = _HttpResponse(status=status, headers=headers, body=body)

    def _send_unavailable(self, reason: str) -> None:
        rec = self.server.linker.metrics
        if rec.enabled:
            rec.inc("nnexus_http_shed_total")
        self._send_json(
            {"error": reason, "retryable": True},
            status=503,
            extra_headers={"Retry-After": str(self.server.retry_after)},
        )

    def _read_json(self) -> dict[str, Any]:
        raw = self.request.body
        if not raw or len(raw) > _MAX_BODY:
            raise ValueError("request body required (and under 8 MiB)")
        payload = json.loads(raw)
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

    def do_GET(self) -> None:  # noqa: N802 - parity with the http.server API
        # Liveness, readiness, metrics and trace forensics answer
        # outside admission control: a saturated server is still
        # *alive*, and probes, scrapes and debugging must keep working
        # exactly when the server is busiest.
        path = self.request.path
        if path == "/health":
            self._send_json({"status": "ok"})
            return
        if path == "/ready":
            if self.server.ready:
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
                self._send_unavailable("not ready")
            return
        if path == "/metrics":
            body = render_prometheus(self.server.metrics_snapshot()).encode("utf-8")
            self.response = _HttpResponse(
                status=200, headers={"Content-Type": _PROM_CONTENT_TYPE}, body=body
            )
            return
        trace_match = _TRACE_PATH.match(path)
        if trace_match:
            self._serve_traces(trace_match.group(1), self.request.query)
            return
        if path == "/debug/profile":
            self._serve_profile(self.request.query)
            return
        with self._request_span("http.GET", path):
            try:
                with self.server.admission.admit():
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

    def do_POST(self) -> None:  # noqa: N802 - parity with the http.server API
        path = self.request.path
        with self._request_span("http.POST", path):
            try:
                with self.server.admission.admit():
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
            self.response = _HttpResponse(
                status=200,
                headers={"Content-Type": "text/plain; charset=utf-8"},
                body=profiler.collapsed().encode("utf-8"),
            )
            return
        self._send_json(profiler.snapshot(max_stacks=limit))


class NNexusHttpGateway:
    """Read-only HTTP facade over a shared linker (asyncio, keep-alive).

    The constructor binds the listening socket (so an occupied port
    fails loudly, before any thread starts); :meth:`serve_forever` runs
    the event loop and blocks until :meth:`shutdown`.  The lifecycle
    mirrors ``socketserver`` — ``serve_forever`` on a thread, then
    ``shutdown()`` followed by ``server_close()`` — so callers of the
    old thread-per-connection gateway drop in unchanged.

    Parameters
    ----------
    linker:
        The shared NNexus instance.
    max_in_flight:
        Admission bound; excess requests get 503 + ``Retry-After``.
    retry_after:
        Seconds advertised in the ``Retry-After`` header when shedding.
    rwlock:
        Readers-writer lock guarding linker access.  Pass the socket
        server's ``rwlock`` when both serve one linker so HTTP reads
        interleave safely with socket-side mutations; defaults to a
        private lock.
    keepalive_timeout:
        Seconds an idle keep-alive connection may sit between requests
        before the gateway closes it.
    profiler:
        A sampling profiler (see :mod:`repro.obs.profile`) served at
        ``/debug/profile``.  Defaults to the inert
        :data:`~repro.obs.profile.NULL_PROFILER` (the route answers
        404).
    loop_lag_interval:
        Seconds between event-loop lag probes (the probe task only
        runs when the linker's metrics recorder is enabled).
    """

    def __init__(
        self,
        linker: NNexus,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 64,
        retry_after: int = 1,
        rwlock: ReadersWriterLock | None = None,
        keepalive_timeout: float = 75.0,
        profiler: NullProfiler | None = None,
        loop_lag_interval: float = 0.25,
    ) -> None:
        self.linker = linker
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.admission = AdmissionController(max_in_flight, metrics=linker.metrics)
        self.retry_after = retry_after
        self.keepalive_timeout = keepalive_timeout
        self.loop_lag_interval = loop_lag_interval
        self._rwlock = (
            rwlock if rwlock is not None else ReadersWriterLock(metrics=linker.metrics)
        )
        self._ready = threading.Event()
        self._ready.set()
        # A few threads beyond the admission bound: when every admitted
        # slot is occupied, the spare threads are what run the shed path
        # (admission.admit() raising -> 503) instead of queueing.
        self._executor = ThreadPoolExecutor(
            max_workers=max_in_flight + 4, thread_name_prefix="nnexus-http"
        )
        # Dispatch bound == worker count, so the executor's internal
        # queue never grows: a burst past it is refused on the loop.
        self._dispatch_slots = threading.BoundedSemaphore(max_in_flight + 4)
        self._serving = threading.Event()
        self._started = threading.Event()
        self._done = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._close_once = threading.Lock()
        self._closed = False
        # Bind last: everything above must exist before server_close()
        # could be asked to clean up after a failed bind.
        self._listen_sock = socket.create_server((host, port))

    @property
    def tracer(self) -> NullTracer:
        """The linker's tracer: one ``NNexus(tracer=...)`` traces the stack."""
        return self.linker.tracer

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listen_sock.getsockname()[:2]
        return str(host), int(port)

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def set_ready(self, ready: bool) -> None:
        """Flip the readiness probe (e.g. False while draining)."""
        if ready:
            self._ready.set()
        else:
            self._ready.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the accept loop; blocks the caller until :meth:`shutdown`."""
        self._serving.set()
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                self._loop = None
                loop.close()
                self._done.set()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._on_connection, sock=self._listen_sock
        )
        lag_probe: asyncio.Task | None = None
        if self.linker.metrics.enabled:
            lag_probe = asyncio.ensure_future(self._loop_lag_probe())
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            if lag_probe is not None:
                lag_probe.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await lag_probe
            server.close()
            await server.wait_closed()
            # start_server's per-connection tasks are not children of
            # this coroutine; reap them explicitly or they (and their
            # sockets) would outlive the loop.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _loop_lag_probe(self) -> None:
        """Measure how late the loop runs a timed callback.

        ``asyncio.sleep(interval)`` should wake after ``interval``;
        every extra millisecond means ready callbacks (request parsing,
        response writes, probe routes) were stuck behind something —
        the one saturation signal the admission gauges cannot surface
        because it lives in the loop itself, not in the thread pool.
        """
        rec = self.linker.metrics
        loop = asyncio.get_running_loop()
        interval = self.loop_lag_interval
        while True:
            before = loop.time()
            await asyncio.sleep(interval)
            lag = max(0.0, loop.time() - before - interval)
            rec.observe("nnexus_loop_lag_seconds", lag)
            rec.set_gauge("nnexus_loop_lag_last_seconds", lag)

    def shutdown(self) -> None:
        """Stop the loop and close every connection; blocks until done."""
        if not self._serving.is_set():
            return  # serve_forever never ran; nothing to stop
        self._started.wait(timeout=5.0)
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # the loop already finished on its own
        self._done.wait(timeout=10.0)

    def server_close(self) -> None:
        """Release the listening socket and reap the worker threads."""
        self.shutdown()  # no-op unless something is still serving
        with self._close_once:
            if self._closed:
                return
            self._closed = True
        try:
            self._listen_sock.close()
        except OSError:
            pass
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling (event loop)
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._handle_connection(reader, writer)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError as exc:
                    # Malformed request: answer 400 and drop the
                    # connection — the stream offset is untrustworthy.
                    error = _HttpResponse(
                        status=400,
                        headers={"Content-Type": "application/json; charset=utf-8"},
                        body=json.dumps({"error": str(exc)}).encode("utf-8"),
                    )
                    writer.write(error.serialize(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._respond(request)
                keep_alive = request.keep_alive
                if _ACCESS_LOG.enabled_for("debug"):
                    _ACCESS_LOG.debug(
                        "http.access",
                        client=str(peer),
                        message=f"{request.method} {request.target} "
                        f"{response.status}",
                    )
                writer.write(response.serialize(keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass  # peer went away mid-exchange; nothing left to answer
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader) -> _HttpRequest | None:
        """Parse one HTTP/1.x request; None on clean EOF or idle expiry."""
        try:
            line = await asyncio.wait_for(reader.readline(), self.keepalive_timeout)
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: close quietly
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError(f"bad request line {line!r:.100}")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(), _HEADER_TIMEOUT)
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise ValueError("too many headers")
            text = raw.decode("latin-1").rstrip("\r\n")
            name, sep, value = text.partition(":")
            if not sep:
                raise ValueError(f"bad header line {text!r:.100}")
            headers[name.strip().lower()] = value.strip()
        try:
            split = urlsplit(target)
        except ValueError as exc:  # e.g. an unclosed "[" IPv6 host
            raise ValueError(f"bad request target {target!r:.100}") from exc
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise ValueError("bad content-length") from exc
        if length < 0 or length > _MAX_BODY:
            raise ValueError("request body must be under 8 MiB")
        body = b""
        if length:
            body = await asyncio.wait_for(reader.readexactly(length), _BODY_TIMEOUT)
        return _HttpRequest(
            method=method,
            target=target,
            version=version,
            headers=headers,
            body=body,
            path=split.path,
            query=split.query,
        )

    async def _respond(self, request: _HttpRequest) -> _HttpResponse:
        handler = _Handler(self, request)
        if request.method == "GET" and _is_probe(request.path):
            # Probes take no locks and must outlive executor saturation.
            handler.do_GET()
        elif request.method in ("GET", "POST"):
            if not self._dispatch_slots.acquire(blocking=False):
                handler._send_unavailable("gateway dispatch queue is full")
            else:
                try:
                    work = handler.do_GET if request.method == "GET" else handler.do_POST
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(self._executor, work)
                except RuntimeError:
                    # The executor shut down while this request raced
                    # in; refuse it the same way admission would.
                    handler._send_unavailable("gateway is shutting down")
                finally:
                    self._dispatch_slots.release()
        else:
            handler._send_json(
                {"error": f"method {request.method} not allowed"}, status=405
            )
        if handler.response is None:  # pragma: no cover — routes always answer
            handler._send_json({"error": "handler produced no response"}, status=500)
            assert handler.response is not None
        return handler.response

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
                ("nnexus_rwlock_writers_waiting", self._rwlock.writers_waiting),
            )
        ]
        return snapshot

    def describe(self) -> dict[str, Any]:
        """Corpus statistics payload."""
        with self._rwlock.read_lock():
            info = self.linker.describe()
        return {
            "objects": info["objects"],
            "concepts": info["concepts"],
            "policies": info["policies"],
        }

    def link(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Link text from a JSON request payload."""
        text = str(payload.get("text", ""))
        classes = [str(c) for c in payload.get("classes", [])]
        fmt = str(payload.get("format", "html"))
        renderer_for(fmt)  # a bad format fails before linking
        with self._rwlock.read_lock():
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
        text = str(payload.get("text", ""))
        classes = [str(c) for c in payload.get("classes", [])]
        source_iri = str(payload.get("source", "urn:nnexus:document"))
        with self._rwlock.read_lock():
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
        with self._rwlock.read_lock():
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
    """Start the gateway on a daemon thread; returns the bound server.

    The listening socket is bound (and listening) before this returns,
    so ``gateway.address`` is immediately connectable — early requests
    queue in the accept backlog until the loop picks them up.  Keyword
    arguments are forwarded to :class:`NNexusHttpGateway`
    (``max_in_flight``, ``retry_after``, ``rwlock``,
    ``keepalive_timeout``, ``profiler``, ``loop_lag_interval``).  The
    gateway traces with the linker's own tracer.
    """
    gateway = NNexusHttpGateway(linker, host=host, port=port, **kwargs)
    thread = threading.Thread(target=gateway.serve_forever, daemon=True)
    thread.start()
    return gateway
