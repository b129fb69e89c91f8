"""The NNexus socket server (Fig. 7 deployment).

A threaded TCP server exposing a shared :class:`~repro.core.linker.NNexus`
over the XML protocol of :mod:`repro.server.protocol`.  Clients in any
language can add objects and request linked renderings — the paper's
"API so that it can be used with any document corpus and with client
software written in any programming language".

Operational hardening (see ``docs/architecture.md``):

* read-mostly concurrency — ``ping``/``describe``/``linkEntry`` share a
  readers-writer lock while mutations run exclusively;
* bounded admission — past ``max_in_flight`` concurrent requests the
  server sheds load with a retryable ``overloaded`` error;
* per-connection deadlines — an idle connection is closed after
  ``idle_timeout``, and once a request starts arriving each socket read
  must complete within ``request_timeout`` (slow-loris defense);
* graceful shutdown — :meth:`NNexusServer.shutdown_gracefully` stops
  accepting, sheds new requests and drains in-flight ones;
* fault injection — an optional :class:`~repro.server.faults.FaultInjector`
  lets tests drop connections, corrupt frames or force error codes;
* request tracing — with a :class:`~repro.obs.trace.Tracer` installed,
  every request runs inside a root span (continuing the client's
  ``traceparent`` field when present) and answers with a ``traceid``
  field; ``getTrace``/``getRecentTraces`` retrieve recorded traces and,
  like ``/metrics`` scraping, bypass admission control so forensics
  stay available during overload;
* pipelining — a request tagged with a ``reqid`` field and naming a
  read method is dispatched to a bounded executor instead of blocking
  the connection's reader loop, so one connection can carry many
  requests in flight; responses (tagged with the request's ``reqid``)
  may complete out of order.  Mutations, untagged requests, and
  fault-injected requests stay on the serial FIFO path, so legacy
  clients see exactly the old one-at-a-time behaviour.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.errors import (
    DeadlineExceededError,
    NNexusError,
    OverloadedError,
    ProtocolError,
    ReadOnlyError,
)
from repro.core.linker import NNexus
from repro.core.render import renderer_for
from repro.obs.logging import get_logger
from repro.obs.profile import NULL_PROFILER, NullProfiler, parse_profile_params
from repro.obs.trace import NULL_SPAN, NullTracer, parse_trace_limit
from repro.server import protocol
from repro.server.faults import FaultInjector
from repro.server.resilience import AdmissionController, ReadersWriterLock

__all__ = [
    "NNexusServer",
    "serve_forever",
    "READ_METHODS",
    "WRITE_METHODS",
    "DEBUG_METHODS",
]

#: Methods that only read linker state — they share the read lock.
READ_METHODS = frozenset({"ping", "describe", "linkEntry", "getMetrics"})
#: Methods that mutate linker state — they take the write lock.
WRITE_METHODS = frozenset({"addObject", "updateObject", "removeObject", "setPolicy"})
#: Debug methods served outside admission control and draining (like
#: ``/metrics`` scraping) — they read observability state (the
#: tracer's ring, the memory accountant, the sampling profiler), never
#: linker corpus state under the rwlock.
DEBUG_METHODS = frozenset(
    {"getTrace", "getRecentTraces", "getResourceStats", "getProfile"}
)
#: Methods a ``reqid``-tagged request may run out of order: everything
#: that does not mutate linker state.  Writes keep per-connection FIFO.
PIPELINED_METHODS = READ_METHODS | DEBUG_METHODS
#: Seconds connection teardown waits for in-flight pipelined responses
#: to flush before closing the socket under them.
PIPELINE_DRAIN_TIMEOUT = 10.0

_LOG = get_logger("nnexus.server")


def _classify(exc: BaseException) -> tuple[str, bool]:
    """Map an exception to a (code, retryable) pair for the wire."""
    if isinstance(exc, OverloadedError):
        return "overloaded", True
    if isinstance(exc, DeadlineExceededError):
        return "deadline", True
    if isinstance(exc, (ProtocolError, ValueError)):
        return "bad-request", False
    if isinstance(exc, ReadOnlyError):
        # Storage corruption degraded the linker: reads still work, so
        # tell writers plainly instead of a retryable overload signal.
        return "read-only", False
    if isinstance(exc, NNexusError):
        return "bad-request", False
    return "internal", False


class _DeadlineRecv:
    """``recv`` wrapper enforcing the idle/request socket deadlines.

    Between requests the socket may sit quiet for ``idle_timeout``; as
    soon as the first byte of a frame arrives, every subsequent read
    must complete within ``request_timeout`` so a trickling writer
    cannot pin a handler thread forever.
    """

    def __init__(self, sock: socket.socket, idle: float | None, request: float | None):
        self._sock = sock
        self._idle = idle
        self._request = request
        self._mid_frame = False

    def reset(self) -> None:
        self._mid_frame = False

    @property
    def mid_frame(self) -> bool:
        return self._mid_frame

    def __call__(self, count: int) -> bytes:
        self._sock.settimeout(self._request if self._mid_frame else self._idle)
        chunk = self._sock.recv(count)
        if chunk:
            self._mid_frame = True
        return chunk


class _ResponseWriter:
    """Serializes frame writes to one socket.

    With pipelining, executor workers and the reader loop both answer
    on the same socket; interleaving two ``sendall`` calls would
    corrupt the frame stream, so every response goes through this
    per-connection mutex.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, payload: bytes) -> bool:
        """Write one framed response; False when the peer is gone."""
        with self._lock:
            try:
                # This lock exists precisely to serialize this send: it
                # guards only the socket (never linker state), so one
                # slow peer stalls its own connection, nothing else.
                self._sock.sendall(payload)  # lint: disable=REP101
                return True
            except OSError:
                return False

    def send_response(self, response: protocol.Response) -> bool:
        return self.send(protocol.frame(protocol.encode_response(response)))


class _InFlight:
    """Counts a connection's pipelined requests still executing, so the
    reader can drain them before tearing the connection down."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._count = 0

    def enter(self) -> None:
        with self._cond:
            self._count += 1

    def exit(self) -> None:
        with self._cond:
            self._count -= 1
            self._cond.notify_all()

    def drain(self, timeout: float | None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._count == 0, timeout=timeout)


class _Handler(socketserver.BaseRequestHandler):
    """One connection; a reader loop demuxing a stream of framed requests.

    Untagged or mutating requests execute inline (FIFO, exactly the
    pre-pipelining behaviour); ``reqid``-tagged read requests are handed
    to the server's bounded executor and answer out of order.
    """

    server: "NNexusServer"

    def handle(self) -> None:
        sock: socket.socket = self.request
        # Frames are small and latency-bound; Nagle + delayed ACK can
        # stall a pipelined connection for tens of milliseconds.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        recv = _DeadlineRecv(
            sock, self.server.idle_timeout, self.server.request_timeout
        )
        writer = _ResponseWriter(sock)
        inflight = _InFlight()
        try:
            self._reader_loop(sock, recv, writer, inflight)
        finally:
            # Never close the socket under a worker still writing: wait
            # for in-flight pipelined responses to flush (bounded).
            inflight.drain(PIPELINE_DRAIN_TIMEOUT)

    def _reader_loop(
        self,
        sock: socket.socket,
        recv: _DeadlineRecv,
        writer: _ResponseWriter,
        inflight: _InFlight,
    ) -> None:
        while True:
            recv.reset()
            try:
                message = protocol.read_frame(recv)
            except TimeoutError:
                if recv.mid_frame:
                    # The request started but never finished.  Requests
                    # already dispatched are unaffected: let their
                    # tagged responses flush first, then tell the
                    # client its deadline passed (best effort — the
                    # inbound stream is desynchronized, so close
                    # afterwards; the error carries no reqid and
                    # pipelined clients count it as unmatched).
                    inflight.drain(PIPELINE_DRAIN_TIMEOUT)
                    writer.send_response(
                        protocol.Response(
                            status="error",
                            method="unknown",
                            error="request deadline exceeded",
                            code="deadline",
                            retryable=True,
                        )
                    )
                return
            except (ProtocolError, ConnectionError, OSError):
                return
            if message is None:
                return

            fault = self.server.faults.next()
            if fault is not None and fault.kind == "drop":
                return
            if fault is not None and fault.kind == "delay":
                time.sleep(fault.delay)
                fault = None

            # Decode once, up front: the reader must see the method and
            # reqid to route, and dispatch reuses the same parse.
            # Undecodable frames answer on the serial path (the
            # dispatcher turns the parse failure into a bad-request).
            request: protocol.Request | None
            try:
                request = protocol.decode_request(message)
            except Exception:  # noqa: BLE001 - answered as bad-request below
                request = None

            if fault is not None and fault.kind == "error":
                injected = protocol.Response(
                    status="error",
                    method="unknown",
                    error=f"injected {fault.code}",
                    code=fault.code,
                    retryable=fault.retryable,
                )
                # Echo the reqid, as shed_pipelined does: a multiplexing
                # client matches replies by it and never sees an
                # untagged one.
                if request is not None and request.fields.get("reqid"):
                    injected.fields["reqid"] = request.fields["reqid"]
                if not writer.send_response(injected):
                    return
                continue

            if (
                fault is None
                and request is not None
                and request.fields.get("reqid")
                and request.method in PIPELINED_METHODS
            ):
                if not self.server.submit_pipelined(request, writer, inflight):
                    # Executor backlog is full: shed in the reader, with
                    # the same retryable overloaded contract as admission.
                    if not writer.send(self.server.shed_pipelined(request)):
                        return
                continue

            reply = self.server.dispatch_message(message, request=request)
            payload = protocol.frame(reply)
            if fault is not None:  # truncate / corrupt, then sever
                try:
                    sock.sendall(self.server.faults.mutate_response(fault, payload))
                except OSError:
                    pass
                return
            if not writer.send(payload):
                return


class NNexusServer(socketserver.ThreadingTCPServer):
    """Serve a linker instance over XML/TCP.

    Parameters
    ----------
    linker:
        The shared NNexus instance.  Read-only methods run concurrently
        under a readers-writer lock; mutations are exclusive.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    max_in_flight:
        Admission bound — requests beyond this are shed with a
        retryable ``overloaded`` error instead of queueing.  It also
        bounds the pipelined requests submitted-but-unfinished across
        the server (:attr:`pipeline_depth`): beyond it the reader loop
        sheds a tagged read instead of queueing it unboundedly behind
        the executor.
    request_timeout / idle_timeout:
        Socket deadlines in seconds (``None`` disables): a read that is
        mid-frame must progress within ``request_timeout``; a quiet
        connection is dropped after ``idle_timeout``.
    faults:
        Optional :class:`~repro.server.faults.FaultInjector` consulted
        once per request (tests only; the default injector is inert).
    pipeline_workers:
        Executor threads shared by every connection's ``reqid``-tagged
        read requests (default ``min(32, max_in_flight)``).  The
        executor is what lets one connection keep many requests in
        flight; untagged and mutating requests never use it.
    profiler:
        A sampling profiler (see :mod:`repro.obs.profile`) the
        ``getProfile`` debug method reads from.  Defaults to the inert
        :data:`~repro.obs.profile.NULL_PROFILER` (``getProfile``
        answers ``bad-request``); pass a started
        :class:`~repro.obs.profile.SamplingProfiler` to serve
        aggregated stack profiles during overload forensics.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        linker: NNexus,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 64,
        request_timeout: float | None = 30.0,
        idle_timeout: float | None = 300.0,
        faults: FaultInjector | None = None,
        pipeline_workers: int | None = None,
        profiler: NullProfiler | None = None,
    ) -> None:
        self.linker = linker
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.rwlock = ReadersWriterLock(metrics=linker.metrics)
        self.admission = AdmissionController(max_in_flight, metrics=linker.metrics)
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.faults = faults if faults is not None else FaultInjector()
        self._draining = threading.Event()
        self.pipeline_workers = (
            pipeline_workers if pipeline_workers else min(32, max_in_flight)
        )
        # Pipelined requests submitted but not finished (executor queue
        # plus running workers) — the backlog bounded by pipeline_depth
        # and the saturation gauge for the demux path.  Guarded by its
        # own lock: the reader thread increments, worker threads
        # decrement.
        self._pipeline_count_lock = threading.Lock()
        self._pipeline_in_flight = 0
        self._executor = ThreadPoolExecutor(
            max_workers=self.pipeline_workers,
            thread_name_prefix="nnexus-pipeline",
        )
        self._executor_lock = threading.Lock()
        self._executor_closed = False
        # Bind last: a failed bind calls server_close(), which must find
        # the executor attributes above already in place to reap them.
        super().__init__((host, port), _Handler)

    @property
    def pipeline_depth(self) -> int:
        """Bound on the pipelined backlog: the admission bound."""
        return self.admission.max_in_flight

    @property
    def tracer(self) -> NullTracer:
        """The linker's tracer: one ``NNexus(tracer=...)`` traces the stack."""
        return self.linker.tracer

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown_gracefully(self, drain_timeout: float = 10.0) -> bool:
        """Stop accepting, shed new requests, drain in-flight ones.

        Returns True when every in-flight request finished within
        ``drain_timeout``.  The listener is closed either way.
        """
        self._draining.set()
        self.shutdown()
        drained = self.admission.wait_idle(timeout=drain_timeout)
        self.server_close()
        return drained

    def server_close(self) -> None:
        super().server_close()
        # Idempotent (shutdown_gracefully and test fixtures may both
        # call it); waits so no worker outlives its socket.
        with self._executor_lock:
            if self._executor_closed:
                return
            self._executor_closed = True
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Pipelined dispatch
    # ------------------------------------------------------------------
    def submit_pipelined(
        self,
        request: protocol.Request,
        writer: _ResponseWriter,
        inflight: _InFlight,
    ) -> bool:
        """Hand one ``reqid``-tagged read to the executor.

        Returns False when the pipeline backlog is at ``pipeline_depth``
        (the caller sheds) or the server is closing.  The executor
        worker runs the ordinary dispatch — admission control, the
        readers-writer lock, tracing — and writes the tagged response
        through the connection's serialized writer.
        """
        with self._pipeline_count_lock:
            if self._pipeline_in_flight >= self.pipeline_depth:
                return False
            self._pipeline_in_flight += 1
        inflight.enter()
        rec = self.linker.metrics
        submitted = time.monotonic() if rec.enabled else 0.0

        def work() -> None:
            try:
                if rec.enabled:
                    # Time from reader-loop submit to worker start: the
                    # executor-queue wait, the demux path's saturation
                    # histogram.
                    rec.observe(
                        "nnexus_pipeline_queue_wait_seconds",
                        time.monotonic() - submitted,
                    )
                reply = self.dispatch_message("", request=request)
                writer.send(protocol.frame(reply))
            finally:
                with self._pipeline_count_lock:
                    self._pipeline_in_flight -= 1
                inflight.exit()

        try:
            self._executor.submit(work)
        except RuntimeError:  # executor already shut down
            with self._pipeline_count_lock:
                self._pipeline_in_flight -= 1
            inflight.exit()
            return False
        return True

    @property
    def pipeline_in_flight(self) -> int:
        """Pipelined requests submitted but not yet finished."""
        with self._pipeline_count_lock:
            return self._pipeline_in_flight

    def shed_pipelined(self, request: protocol.Request) -> bytes:
        """The framed overloaded reply for a shed pipelined request."""
        rec = self.linker.metrics
        if rec.enabled:
            rec.inc(
                "nnexus_server_requests_total",
                method=request.method,
                status="error",
            )
            rec.inc("nnexus_server_errors_total", code="overloaded")
            rec.inc("nnexus_server_shed_total")
        response = protocol.Response(
            status="error",
            method=request.method,
            error=f"pipeline backlog is full ({self.pipeline_depth} deep)",
            code="overloaded",
            retryable=True,
        )
        reqid = request.fields.get("reqid", "")
        if reqid:
            response.fields["reqid"] = reqid
        return protocol.frame(protocol.encode_response(response))

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def dispatch_message(
        self, message: str, request: protocol.Request | None = None
    ) -> str:
        """Decode, execute and encode one request (errors become XML).

        With tracing enabled the whole dispatch runs inside a root span
        continuing the request's optional ``traceparent`` field, and
        both ok and error responses carry a ``traceid`` field so the
        caller can fetch the trace afterwards.  A pre-decoded
        ``request`` skips the parse (the reader loop already decoded
        the frame to route it); responses echo the request's ``reqid``
        field when present so pipelined clients can match them.
        """
        method = "unknown"
        reqid = ""
        rec = self.linker.metrics
        trc = self.tracer
        span = NULL_SPAN
        try:
            if request is None:
                request = protocol.decode_request(message)
            method = request.method
            reqid = request.fields.get("reqid", "")
            if trc.enabled:
                span = trc.start_trace(
                    f"server.{method}",
                    traceparent=request.fields.get("traceparent"),
                    method=method,
                )
                span.__enter__()
            response = self._execute(request)
            if rec.enabled:
                rec.inc("nnexus_server_requests_total", method=method, status="ok")
        except Exception as exc:  # noqa: BLE001 - every failure becomes a reply
            code, retryable = _classify(exc)
            if rec.enabled:
                rec.inc("nnexus_server_requests_total", method=method, status="error")
                rec.inc("nnexus_server_errors_total", code=code)
                if code == "overloaded":
                    rec.inc("nnexus_server_shed_total")
            response = protocol.Response(
                status="error",
                method=method,
                error=str(exc) or exc.__class__.__name__,
                code=code,
                retryable=retryable,
            )
            if span.is_recording:
                span.set_status("error", f"{code}: {exc}")
        if reqid:
            # Echoed on ok and error responses alike: an unmatched
            # error reply would strand the pipelined caller's waiter.
            response.fields.setdefault("reqid", reqid)
        if span.is_recording:
            # Stamped on errors too: a failed request's trace is the one
            # the caller most wants to retrieve.
            response.fields.setdefault("traceid", span.trace_id)
            span.set_attribute("status", response.status)
            if _LOG.enabled_for("debug"):
                _LOG.debug("server.request", method=method, status=response.status)
            span.__exit__(None, None, None)
        return protocol.encode_response(response)

    def _execute(self, request: protocol.Request) -> protocol.Response:
        handler = {
            "ping": self._ping,
            "describe": self._describe,
            "linkEntry": self._link_entry,
            "addObject": self._add_object,
            "updateObject": self._update_object,
            "removeObject": self._remove_object,
            "setPolicy": self._set_policy,
            "getMetrics": self._get_metrics,
            "getTrace": self._get_trace,
            "getRecentTraces": self._get_recent_traces,
            "getResourceStats": self._get_resource_stats,
            "getProfile": self._get_profile,
        }.get(request.method)
        if handler is None:
            # Unknown methods must answer, not kill the handler thread.
            raise ProtocolError(f"unknown method {request.method!r}")
        if request.method in DEBUG_METHODS:
            # Forensics reads only touch the tracer's own (locked) ring:
            # serve them even while draining or shedding, so a slow or
            # overloaded server can still be diagnosed.
            return handler(request)
        if self._draining.is_set():
            raise OverloadedError("server is draining for shutdown")
        with self.admission.admit():
            lock = (
                self.rwlock.read_lock()
                if request.method in READ_METHODS
                else self.rwlock.write_lock()
            )
            with lock:
                return handler(request)

    def _ping(self, request: protocol.Request) -> protocol.Response:
        return protocol.Response(status="ok", method="ping", fields={"pong": "1"})

    def _get_metrics(self, request: protocol.Request) -> protocol.Response:
        snapshot = self.linker.metrics_snapshot()
        snapshot["gauges"] += [
            {"name": name, "labels": {}, "value": float(value)}
            for name, value in (
                ("nnexus_server_in_flight", self.admission.in_flight),
                ("nnexus_server_max_in_flight", self.admission.max_in_flight),
                ("nnexus_rwlock_writers_waiting", self.rwlock.writers_waiting),
                ("nnexus_pipeline_in_flight", self.pipeline_in_flight),
                ("nnexus_pipeline_depth_limit", self.pipeline_depth),
            )
        ]
        return protocol.Response(
            status="ok",
            method="getMetrics",
            fields={"metrics": json.dumps(snapshot, sort_keys=True)},
        )

    def _get_trace(self, request: protocol.Request) -> protocol.Response:
        trace_id = request.fields.get("traceid", "").strip()
        if not trace_id:
            raise ProtocolError("getTrace requires a traceid field")
        trace = self.tracer.get_trace(trace_id)
        if trace is None:
            raise ProtocolError(f"unknown trace {trace_id!r}")
        return protocol.Response(
            status="ok",
            method="getTrace",
            fields={"trace": json.dumps(trace, sort_keys=True, default=str)},
        )

    def _get_recent_traces(self, request: protocol.Request) -> protocol.Response:
        limit = parse_trace_limit(request.fields.get("limit"))
        traces = self.tracer.recent_traces(limit)
        return protocol.Response(
            status="ok",
            method="getRecentTraces",
            fields={"traces": json.dumps(traces, sort_keys=True, default=str)},
        )

    def _get_resource_stats(self, request: protocol.Request) -> protocol.Response:
        deep = request.fields.get("deep", "").strip().lower() in {"1", "true", "yes"}
        stats = self.linker.resource_stats(deep=deep)
        stats["server"] = {
            "in_flight": self.admission.in_flight,
            "max_in_flight": self.admission.max_in_flight,
            "pipeline_in_flight": self.pipeline_in_flight,
            "pipeline_depth": self.pipeline_depth,
            "writers_waiting": self.rwlock.writers_waiting,
            "draining": self.draining,
        }
        return protocol.Response(
            status="ok",
            method="getResourceStats",
            fields={"resources": json.dumps(stats, sort_keys=True, default=str)},
        )

    def _get_profile(self, request: protocol.Request) -> protocol.Response:
        if not self.profiler.enabled:
            # Same contract as getTrace without tracing: a structured
            # bad-request, not a dead connection.
            raise ProtocolError("profiling is not enabled on this server")
        fmt, limit = parse_profile_params(
            request.fields.get("format"), request.fields.get("limit")
        )
        if fmt == "collapsed":
            return protocol.Response(
                status="ok",
                method="getProfile",
                fields={"profile": self.profiler.collapsed(), "format": "collapsed"},
            )
        snapshot = self.profiler.snapshot(max_stacks=limit)
        return protocol.Response(
            status="ok",
            method="getProfile",
            fields={"profile": json.dumps(snapshot, sort_keys=True), "format": "json"},
        )

    def _describe(self, request: protocol.Request) -> protocol.Response:
        info = self.linker.describe()
        fields = {
            "objects": str(info["objects"]),
            "concepts": str(info["concepts"]),
            "policies": str(info["policies"]),
            "read_only": "1" if info.get("read_only") else "0",
        }
        return protocol.Response(status="ok", method="describe", fields=fields)

    def _link_entry(self, request: protocol.Request) -> protocol.Response:
        text = request.fields.get("text", "")
        classes = [
            code.strip()
            for code in request.fields.get("classes", "").split(",")
            if code.strip()
        ]
        fmt = request.fields.get("format", "html")
        renderer_for(fmt)  # a bad format fails before linking
        document = self.linker.link_text(text, source_classes=classes)
        body = self.linker.render_document(document, fmt)
        return protocol.Response(
            status="ok",
            method="linkEntry",
            fields={"body": body, "linkcount": str(document.link_count)},
            links=protocol.links_payload(document),
        )

    def _add_object(self, request: protocol.Request) -> protocol.Response:
        if request.obj is None:
            raise ProtocolError("addObject requires an <object> element")
        invalidated = self.linker.add_object(request.obj)
        return protocol.Response(
            status="ok",
            method="addObject",
            fields={
                "invalidated": ",".join(str(i) for i in sorted(invalidated)),
                "objects": str(len(self.linker)),
            },
        )

    def _update_object(self, request: protocol.Request) -> protocol.Response:
        if request.obj is None:
            raise ProtocolError("updateObject requires an <object> element")
        invalidated = self.linker.update_object(request.obj)
        return protocol.Response(
            status="ok",
            method="updateObject",
            fields={"invalidated": ",".join(str(i) for i in sorted(invalidated))},
        )

    def _remove_object(self, request: protocol.Request) -> protocol.Response:
        invalidated = self.linker.remove_object(self._require_object_id(request))
        return protocol.Response(
            status="ok",
            method="removeObject",
            fields={"invalidated": ",".join(str(i) for i in sorted(invalidated))},
        )

    def _set_policy(self, request: protocol.Request) -> protocol.Response:
        object_id = self._require_object_id(request)
        policy = request.fields.get("policy", "")
        self.linker.set_linking_policy(object_id, policy)
        return protocol.Response(status="ok", method="setPolicy")

    @staticmethod
    def _require_object_id(request: protocol.Request) -> int:
        """A present, integral ``objectid`` — never a fabricated default."""
        raw = request.fields.get("objectid")
        if raw is None or not raw.strip():
            raise ProtocolError(f"{request.method} requires an objectid field")
        try:
            return int(raw)
        except ValueError as exc:
            raise ProtocolError(f"bad objectid {raw!r}") from exc


def serve_forever(
    linker: NNexus,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: object,
) -> NNexusServer:
    """Start a server on a background thread; returns it (bound, running).

    Keyword arguments are forwarded to :class:`NNexusServer`
    (``max_in_flight``, ``request_timeout``, ``idle_timeout``,
    ``faults``, ``pipeline_workers``, ``profiler``).
    The server traces with the linker's own tracer.
    """
    server = NNexusServer(linker, host=host, port=port, **kwargs)  # type: ignore[arg-type]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
