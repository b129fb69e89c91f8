"""Python client for the NNexus XML socket protocol.

Every :class:`NNexusClient` multiplexes its connection: each request is
tagged with a unique ``reqid`` field, and a background reader thread
matches the server's (possibly out-of-order) tagged responses back to
their waiters.  A serial caller is a multiplexer with one call in
flight; many threads may share one client and keep many requests in
flight over its single connection.  The server must echo ``reqid``;
untagged one-in-one-out FIFO stays the wire contract for other clients
(see ``docs/wire-protocol.md``, "Pipelining").

The client reconnects and retries: transient failures (connection
drops, truncated frames, server-advertised retryable errors such as
``overloaded``) are retried under a configurable
:class:`~repro.server.resilience.RetryPolicy` — exponential backoff
with jitter, bounded by an optional total deadline.  Non-retryable
server errors (``bad-request``, domain errors) surface immediately as
:class:`RemoteError`.  A call that outlives its per-call timeout raises
:class:`~repro.core.errors.DeadlineExceededError` without a retry; only
that request's budget is spent, and the connection stays up.  A
request the server could not decode (more than ``MAX_REQUEST_TAGS``
tags, characters XML cannot carry) fails locally with
:class:`~repro.core.errors.ProtocolError` before anything is sent.

With a :class:`~repro.obs.trace.Tracer` installed, every API call runs
inside a ``client.<method>`` span and each network attempt becomes a
``client.attempt`` child span whose context is injected into the
request as a ``traceparent`` field — so a retried request shows up as
ONE trace with one attempt span per try, and a tracing-aware server
continues the same trace.

Every transport failure path — a failed ``sendall``, a truncated or
undecodable frame, a reader-thread death, :meth:`NNexusClient.close` —
shuts the socket down and closes it before the retry loop reconnects,
so no failure mode leaks a file descriptor or a reader thread, or
reuses a desynchronized frame stream.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from types import TracebackType
from typing import Callable, Sequence

from repro.core.errors import DeadlineExceededError, NNexusError, ProtocolError
from repro.core.models import CorpusObject
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.server import protocol
from repro.server.resilience import Deadline, RetryPolicy

__all__ = ["NNexusClient", "RemoteError"]

#: Response fields stamped by the transport/tracing layers, not data.
_TRANSPORT_FIELDS = frozenset({"traceid", "reqid"})


class RemoteError(NNexusError):
    """The server reported an error for a request.

    ``code`` is the machine-readable error code (``"overloaded"``,
    ``"deadline"``, ``"bad-request"``, ``"internal"`` or ``""`` when
    talking to a pre-code server); ``retryable`` is the server's own
    judgement of whether trying again could succeed.
    """

    def __init__(self, message: str, code: str = "", retryable: bool = False) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = retryable


class _Waiter:
    """One pending request: an event plus its outcome slot."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: protocol.Response | None = None
        self.error: Exception | None = None


class _Multiplexer:
    """Reader-thread demultiplexer for one client connection.

    Many caller threads park in :meth:`call`; a single background
    reader decodes frames and routes each response to the waiter whose
    ``reqid`` it carries.  Responses that match no waiter — late
    arrivals for timed-out requests, or a peer that answers without
    echoing ``reqid`` — bump :attr:`unknown_responses` and are dropped:
    a misbehaving server must never crash the reader.  Any transport
    error fails every outstanding waiter, closes the socket, and leaves
    the multiplexer permanently dead; the owning client builds a fresh
    one on its next attempt.
    """

    def __init__(self, sock: socket.socket) -> None:
        # The reader blocks in recv indefinitely; per-request deadlines
        # are enforced by each waiter's own timed wait instead, so one
        # slow response never poisons the connection for the others.
        sock.settimeout(None)
        self._sock = sock
        self._lock = threading.Lock()
        self._waiters: dict[str, _Waiter] = {}
        self._closed = False
        self.unknown_responses = 0
        self._reader = threading.Thread(
            target=self._read_loop, name="nnexus-client-reader", daemon=True
        )
        self._reader.start()

    @property
    def alive(self) -> bool:
        return not self._closed

    def call(
        self, reqid: str, payload: bytes, timeout: float | None
    ) -> protocol.Response:
        waiter = _Waiter()
        try:
            with self._lock:
                if self._closed:
                    raise ConnectionError("client connection is closed")
                self._waiters[reqid] = waiter
                # This lock exists precisely to serialize this send: it
                # guards only the waiter table and the socket's write
                # side (never linker or corpus state), so the longest
                # anyone waits on it is one frame's sendall.  Holding it
                # across both the registration and the write also means
                # the reader can never deliver a response before its
                # waiter exists.
                self._sock.sendall(payload)  # lint: disable=REP101
        except ConnectionError:
            raise
        except Exception as exc:
            # A failed send leaves the write side in an unknown state;
            # fail everyone and close the socket BEFORE the retry loop
            # reconnects (close-on-every-raised-path, as REP103 demands
            # of the server side).
            self._fail_all(exc)
            raise
        if not waiter.event.wait(timeout):
            # Only this request's budget is spent — the connection stays
            # up for the other in-flight requests.  Abandon the waiter;
            # if its response arrives late the reader counts it in
            # unknown_responses and drops it.
            with self._lock:
                self._waiters.pop(reqid, None)
            raise DeadlineExceededError(
                f"no response for reqid {reqid!r} within {timeout}s"
            )
        if waiter.error is not None:
            raise waiter.error
        if waiter.response is None:  # pragma: no cover — set before event
            raise ProtocolError("waiter woken without a response")
        return waiter.response

    def _read_loop(self) -> None:
        try:
            while True:
                message = protocol.read_frame(self._sock.recv)
                if message is None:
                    raise ProtocolError("server closed the connection")
                response = protocol.decode_response(message)
                reqid = response.fields.get("reqid", "")
                with self._lock:
                    waiter = self._waiters.pop(reqid, None) if reqid else None
                    if waiter is None:
                        self.unknown_responses += 1
                        continue
                waiter.response = response
                waiter.event.set()
        except Exception as exc:
            self._fail_all(exc)

    def _fail_all(self, exc: Exception) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            waiters = list(self._waiters.values())
            self._waiters.clear()
        # Close before waking anyone: a waiter that goes on to retry
        # must never race against a half-dead socket still holding the
        # old file descriptor.  close() alone does not wake a reader
        # blocked in recv on Linux; shutdown() does, at once.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer already hung up
        self._sock.close()
        for waiter in waiters:
            waiter.error = exc
            waiter.event.set()

    def close(self) -> None:
        """Fail outstanding waiters, close the socket, reap the reader."""
        self._fail_all(ConnectionError("client closed the connection"))
        # The shutdown kicks the reader out of recv; reap it so a closed
        # client leaves no thread behind (the reader calls _fail_all
        # itself when it is the one who noticed the error, in which
        # case it must not try to join itself).
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=5.0)


class NNexusClient:
    """Blocking, reconnecting, thread-safe client; usable as a context manager.

    >>> with NNexusClient(host, port) as client:          # doctest: +SKIP
    ...     client.link_entry("every planar graph ...", classes=["05C10"])

    Parameters
    ----------
    host / port / timeout:
        Server address; ``timeout`` bounds the connect and each call's
        wait for its response.
    retry:
        Retry policy for transient failures.  The default retries twice
        (three attempts total); pass ``RetryPolicy.none()`` to fail
        fast, or a policy with ``deadline=...`` to cap the total time
        spent across attempts.
    tracer:
        Tracer recording call/attempt spans and injecting
        ``traceparent`` into outgoing requests (default: the inert
        null tracer — zero overhead, no field added).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        retry: RetryPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        tracer: NullTracer | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._sleep = sleep
        self._mux: _Multiplexer | None = None
        # Serializes connect/teardown across caller threads.
        self._conn_lock = threading.Lock()
        # next(itertools.count) is atomic under the GIL, so concurrent
        # callers always draw distinct reqids.
        self._reqid_counter = itertools.count(1)
        self._unknown_responses = 0
        # Connect eagerly so constructing against a dead address fails
        # loudly, as the non-reconnecting client always did.
        with self._conn_lock:
            self._connect_locked()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect_locked(self) -> _Multiplexer:
        """Replace any dead connection with a fresh one (caller holds
        ``_conn_lock``)."""
        self._teardown_locked()
        sock = socket.create_connection((self._host, self._port), timeout=self._timeout)
        try:
            # Frames are small and latency-bound; Nagle + delayed ACK
            # can stall a pipelined connection for tens of milliseconds.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._mux = _Multiplexer(sock)
            return self._mux
        except Exception:
            sock.close()  # nothing took ownership yet; don't leak
            raise

    def _teardown_locked(self) -> None:
        """Close the connection, if any (caller holds ``_conn_lock``)."""
        mux, self._mux = self._mux, None
        if mux is not None:
            # Fold the dead connection's unmatched-response count into
            # the client-lifetime total before the mux is dropped.
            self._unknown_responses += mux.unknown_responses
            mux.close()

    def _call(self, request: protocol.Request) -> protocol.Response:
        trc = self._tracer
        # Validate-encode before the first attempt, with placeholders for
        # the fields every attempt stamps, so encoding failures (caller
        # bugs, not transport faults) raise eagerly, before the socket
        # is touched, and are never retried.
        request.fields["reqid"] = "r0"
        if trc.enabled:
            request.fields["traceparent"] = "00"
        protocol.frame(protocol.encode_request(request))
        if not trc.enabled:
            return self._retry_loop(lambda attempt: self._attempt(request))
        with trc.span(f"client.{request.method}", method=request.method) as call_span:
            def one_attempt(attempt: int) -> protocol.Response:
                # Each try gets its own child span, and its id is what
                # the server continues — so the server's root span hangs
                # off the attempt that actually reached it.
                with trc.span(
                    "client.attempt", parent=call_span, attempt=attempt
                ) as attempt_span:
                    request.fields["traceparent"] = attempt_span.traceparent()
                    return self._attempt(request)

            response = self._retry_loop(one_attempt)
            call_span.set_attribute("server_trace_id", response.fields.get("traceid", ""))
            return response

    def _retry_loop(
        self, attempt_fn: Callable[[int], protocol.Response]
    ) -> protocol.Response:
        deadline = Deadline(self._retry.deadline)
        attempt = 0
        while True:
            attempt += 1
            if deadline.expired():
                raise DeadlineExceededError(
                    f"deadline exhausted after {attempt - 1} attempt(s)"
                )
            try:
                return attempt_fn(attempt)
            except RemoteError as exc:
                # The transport round-tripped fine — the connection is
                # healthy.  Retry only what the server marked retryable.
                if not exc.retryable or attempt >= self._retry.max_attempts:
                    raise
            except (ConnectionError, ProtocolError, OSError):
                # The connection already failed every waiter and closed
                # its socket; the next attempt reconnects.
                if attempt >= self._retry.max_attempts:
                    raise
            delay = self._retry.backoff(attempt)
            if not deadline.allows(delay):
                raise DeadlineExceededError(
                    f"deadline exhausted after {attempt} attempt(s)"
                )
            self._sleep(delay)

    def _attempt(self, request: protocol.Request) -> protocol.Response:
        """Encode and run one attempt, reconnecting a dead connection."""
        # A fresh reqid per attempt: a retry must never be matched
        # against a late response to the attempt it replaced.
        reqid = f"r{next(self._reqid_counter)}"
        request.fields["reqid"] = reqid
        payload = protocol.frame(protocol.encode_request(request))
        with self._conn_lock:
            mux = self._mux
            if mux is None or not mux.alive:
                mux = self._connect_locked()
        return self._raise_for_status(mux.call(reqid, payload, self._timeout))

    @staticmethod
    def _raise_for_status(response: protocol.Response) -> protocol.Response:
        if not response.ok:
            raise RemoteError(
                response.error or "unknown server error",
                code=response.code,
                retryable=response.retryable,
            )
        return response

    @property
    def unknown_responses(self) -> int:
        """Lifetime count of responses that matched no pending request.

        These are late responses to requests whose deadline already
        fired, or a confused peer echoing a ``reqid`` nobody sent.  They are dropped, not fatal —
        this counter is how tests (and operators) see them anyway.
        """
        with self._conn_lock:
            live = self._mux.unknown_responses if self._mux is not None else 0
            return self._unknown_responses + live

    def close(self) -> None:
        """Close the connection and reap its reader; safe to call repeatedly."""
        with self._conn_lock:
            self._teardown_locked()

    @property
    def connected(self) -> bool:
        mux = self._mux
        return mux is not None and mux.alive

    def __enter__(self) -> "NNexusClient":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # API methods
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Liveness check; True when the server answers."""
        return self._call(protocol.Request("ping")).fields.get("pong") == "1"

    def describe(self) -> dict[str, int]:
        """Corpus statistics as integers."""
        response = self._call(protocol.Request("describe"))
        return {
            key: int(value)
            for key, value in response.fields.items()
            # traceid/reqid are stamped by the transport and tracing
            # layers; everything else describe() answers is a count.
            if key not in _TRANSPORT_FIELDS
        }

    def get_metrics(self) -> dict[str, list[dict[str, object]]]:
        """The server's metrics snapshot (see :mod:`repro.obs.metrics`)."""
        response = self._call(protocol.Request("getMetrics"))
        return json.loads(response.fields.get("metrics", "{}"))

    def get_trace(self, trace_id: str) -> dict[str, object]:
        """Fetch one recorded trace (spans and all) from the server."""
        response = self._call(
            protocol.Request("getTrace", fields={"traceid": trace_id})
        )
        return json.loads(response.fields.get("trace", "{}"))

    def get_recent_traces(self, limit: int = 20) -> list[dict[str, object]]:
        """The server's newest recorded traces, most recent first."""
        response = self._call(
            protocol.Request("getRecentTraces", fields={"limit": str(limit)})
        )
        return json.loads(response.fields.get("traces", "[]"))

    def get_resource_stats(self, deep: bool = False) -> dict[str, object]:
        """Per-component memory accounting and server saturation counters.

        ``deep=True`` asks the server to deep-sample every component's
        live object graph first, so the reply carries estimate-vs-deep
        reconcile ratios (see :mod:`repro.obs.memory`).
        """
        fields = {"deep": "1"} if deep else {}
        response = self._call(protocol.Request("getResourceStats", fields=fields))
        return json.loads(response.fields.get("resources", "{}"))

    def get_profile(self, limit: int | None = None) -> dict[str, object]:
        """The server's aggregated sampling profile (JSON form)."""
        fields = {"limit": str(limit)} if limit is not None else {}
        response = self._call(protocol.Request("getProfile", fields=fields))
        return json.loads(response.fields.get("profile", "{}"))

    def get_profile_collapsed(self) -> str:
        """The profile as collapsed flamegraph text (``frame;frame count``)."""
        response = self._call(
            protocol.Request("getProfile", fields={"format": "collapsed"})
        )
        return response.fields.get("profile", "")

    def link_entry(
        self,
        text: str,
        classes: Sequence[str] = (),
        fmt: str = "html",
    ) -> tuple[str, list[dict[str, str]]]:
        """Link arbitrary text; returns (rendered body, link descriptors)."""
        response = self._call(
            protocol.Request(
                "linkEntry",
                fields={"text": text, "classes": ",".join(classes), "format": fmt},
            )
        )
        return response.fields.get("body", ""), response.links

    def add_object(self, obj: CorpusObject) -> list[int]:
        """Register an entry; returns the invalidated object ids."""
        response = self._call(protocol.Request("addObject", obj=obj))
        raw = response.fields.get("invalidated", "")
        return [int(part) for part in raw.split(",") if part]

    def update_object(self, obj: CorpusObject) -> list[int]:
        """Replace an entry; returns invalidated ids."""
        response = self._call(protocol.Request("updateObject", obj=obj))
        raw = response.fields.get("invalidated", "")
        return [int(part) for part in raw.split(",") if part]

    def remove_object(self, object_id: int) -> list[int]:
        """Unregister an entry; returns invalidated ids."""
        response = self._call(
            protocol.Request("removeObject", fields={"objectid": str(object_id)})
        )
        raw = response.fields.get("invalidated", "")
        return [int(part) for part in raw.split(",") if part]

    def set_policy(self, object_id: int, policy: str) -> None:
        """Install a linking policy on a stored entry."""
        self._call(
            protocol.Request(
                "setPolicy", fields={"objectid": str(object_id), "policy": policy}
            )
        )

