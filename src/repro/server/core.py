"""The connection core both front ends run on.

:class:`ServingCore` is the ``socketserver.ThreadingTCPServer`` (one
thread per connection) under the XML socket server and the HTTP
gateway: their connection deadlines, draining, listen backlog and
teardown, and the linker's readers-writer lock (:func:`linker_rwlock`).

Sockets stay blocking.  A table holds each open socket's read-phase
and write deadlines, and the accept loop's 50 ms tick cuts the sockets
past theirs: a read gets ``SHUT_RD`` (the blocked ``recv`` returns EOF
while the write side stays open for a best-effort reply), a write
``SHUT_RDWR``.  A deadline bounds a whole phase, so a peer dripping one
byte at a time is cut like a silent one.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
import time
import weakref
from typing import Any, ContextManager, TypeVar

from repro.core.errors import OverloadedError
from repro.core.linker import NNexus
from repro.obs.profile import NULL_PROFILER, NullProfiler
from repro.obs.trace import NullTracer
from repro.server.resilience import AdmissionController, ReadersWriterLock

__all__ = ["ServingCore", "linker_rwlock"]

#: Seconds between the accept loop's checks for ``shutdown()`` and for
#: connections past their deadline.
_POLL_INTERVAL = 0.05
#: Seconds between writes of the linker's buffered renderings to its store.
_CHECKPOINT_INTERVAL = 60.0

_LINKER_LOCKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_LINKER_LOCKS_GUARD = threading.Lock()

_Core = TypeVar("_Core", bound="ServingCore")


def linker_rwlock(linker: NNexus) -> ReadersWriterLock:
    """The readers-writer lock of ``linker``, shared by every front end.

    Code that mutates a served linker outside the front ends takes its
    write side too.
    """
    with _LINKER_LOCKS_GUARD:
        rwlock = _LINKER_LOCKS.get(linker)
        if rwlock is None:
            rwlock = _LINKER_LOCKS[linker] = ReadersWriterLock(metrics=linker.metrics)
        return rwlock


class ServingCore(socketserver.ThreadingTCPServer):
    """A threaded TCP server over a shared linker; subclasses set ``handler``.

    Parameters
    ----------
    linker:
        The shared NNexus instance; its tracer traces the server.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    max_in_flight:
        Admission bound: requests beyond it are shed with a retryable
        error instead of queueing.
    profiler:
        A sampling profiler (see :mod:`repro.obs.profile`) served to
        debug clients; the inert default answers that profiling is off.

    The constructor binds the listening socket (so an occupied port
    fails loudly, before any thread starts); :meth:`start` serves on a
    daemon thread, and a connection made before the accept loop runs
    waits in the listen backlog.  As in ``socketserver``, ``shutdown()``
    waits for ``serve_forever`` to return, so call it only on a server
    that serves; one that never served needs only :meth:`server_close`.
    """

    handler: type[socketserver.BaseRequestHandler]
    allow_reuse_address = True
    # socketserver's default backlog of 5 drops the SYNs of a burst of
    # clients connecting at once, and each waits out a 1 s retransmit.
    request_queue_size = 128

    def __init__(
        self,
        linker: NNexus,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 64,
        profiler: NullProfiler | None = None,
    ) -> None:
        self.linker = linker
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.admission = AdmissionController(max_in_flight, metrics=linker.metrics)
        self.rwlock = linker_rwlock(linker)
        self._draining = threading.Event()
        #: Open connections -> [read deadline, write deadline], in
        #: monotonic seconds, None when unarmed.
        self._connections: dict[socket.socket, list[float | None]] = {}
        #: Guards the table; notified when a connection closes.
        self._connections_lock = threading.Condition()
        self._last_checkpoint = time.monotonic()
        # Bind last: a failed bind calls server_close(), which must find
        # the connection table above already in place.
        super().__init__((host, port), self.handler)

    @property
    def tracer(self) -> NullTracer:
        return self.linker.tracer

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def serve_forever(self, poll_interval: float = _POLL_INTERVAL) -> None:
        super().serve_forever(poll_interval)

    def start(self: _Core) -> _Core:
        """Serve on a daemon thread; returns the server, bound and accepting."""
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def admit(self) -> ContextManager[None]:
        """Admit one request that is not a probe; raises a retryable
        :class:`~repro.core.errors.OverloadedError` while draining or
        past ``max_in_flight`` (XML ``overloaded``, HTTP 503)."""
        if self._draining.is_set():
            raise OverloadedError("server is draining for shutdown")
        return self.admission.admit()

    def shutdown_gracefully(self, drain_timeout: float = 10.0) -> bool:
        """Stop accepting, shed new requests, drain admitted ones, close.

        Returns True when every admitted request finished and its
        connection closed within ``drain_timeout``.  The server is
        closed either way.
        """
        deadline = time.monotonic() + drain_timeout
        self._draining.set()
        self.shutdown()
        drained = self.admission.wait_idle(timeout=drain_timeout)
        # An admitted request may still be writing its answer: stop
        # reading every connection, so each thread ends once its writes
        # are done, and only then cut what is left.
        with self._connections_lock:
            self._shutdown_connections(socket.SHUT_RD)
            drained = self._connections_lock.wait_for(
                lambda: not self._connections, timeout=deadline - time.monotonic()
            ) and drained
        self.server_close()
        return drained

    def server_close(self) -> None:
        """Close the listener and every connection; wait for their threads.

        Shutting the sockets down wakes threads idling between requests,
        which would otherwise hold on until their idle deadline.
        """
        with self._connections_lock:
            self._shutdown_connections(socket.SHUT_RDWR)
        super().server_close()

    def _shutdown_connections(self, how: int) -> None:
        """Shut down every open connection (caller holds the table lock)."""
        for sock in self._connections:
            with contextlib.suppress(OSError):
                sock.shutdown(how)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections[request] = [None, None]
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
            self._connections_lock.notify_all()
        super().shutdown_request(request)

    def arm_read(self, sock: socket.socket, seconds: float | None) -> None:
        """Give ``sock``'s read phase ``seconds`` from now (None: no limit)."""
        deadlines = self._connections.get(sock)
        if deadlines is not None:
            deadlines[0] = None if seconds is None else time.monotonic() + seconds

    def arm_write(self, sock: socket.socket, seconds: float | None) -> None:
        """Give ``sock``'s write ``seconds`` from now (None: no limit)."""
        deadlines = self._connections.get(sock)
        if deadlines is not None:
            deadlines[1] = None if seconds is None else time.monotonic() + seconds

    def read_expired(self, sock: socket.socket) -> bool:
        """Whether ``sock``'s read phase ran past its deadline (it may be cut)."""
        deadline = self._connections.get(sock, (None,))[0]
        return deadline is not None and time.monotonic() >= deadline

    def service_actions(self) -> None:
        """The accept loop's tick: cut the connections past a deadline,
        and write the linker's buffered renderings to its store once per
        :data:`_CHECKPOINT_INTERVAL` rather than only at shutdown."""
        now = time.monotonic()
        with self._connections_lock:
            for sock, (read_by, write_by) in self._connections.items():
                if write_by is not None and write_by <= now:
                    how = socket.SHUT_RDWR
                elif read_by is not None and read_by <= now:
                    how = socket.SHUT_RD
                else:
                    continue
                with contextlib.suppress(OSError):
                    sock.shutdown(how)
        if now - self._last_checkpoint >= _CHECKPOINT_INTERVAL:
            self._last_checkpoint = now
            # A mutation marks or deletes the rows a flush wrote in its
            # own transaction, so the flush needs no readers-writer lock.
            self.linker.checkpoint_storage()
