"""Fault and crash helpers for tests of ``SqliteBackend``.

``FailingConnection.install(backend, fail_on=N)`` swaps the backend's
connection for a proxy whose Nth ``execute`` or ``executemany``
(counted together from installation) raises
``sqlite3.OperationalError``.  Everything else,
including ``__enter__``/``__exit__``, goes to the real connection, so
sqlite still rolls back the transaction the failing statement ran in.

``crash_image(data_dir, dest)`` copies a data directory whose
connection is still open: the copy is what a power loss would leave,
with every commit in ``corpus.sqlite3-wal`` and none checkpointed.
"""

from __future__ import annotations

import shutil
import sqlite3
from pathlib import Path

WAL_NAME = "corpus.sqlite3-wal"
SHM_NAME = "corpus.sqlite3-shm"


class FailingConnection:
    def __init__(self, conn: sqlite3.Connection, fail_on: int) -> None:
        self._conn = conn
        self.fail_on = fail_on
        self.calls = 0

    @classmethod
    def install(cls, backend, fail_on: int = 1) -> "FailingConnection":
        proxy = cls(backend._conn, fail_on)
        backend._conn = proxy
        return proxy

    def _count(self) -> None:
        self.calls += 1
        if self.calls == self.fail_on:
            raise sqlite3.OperationalError("injected fault: disk I/O error")

    def execute(self, *args):
        self._count()
        return self._conn.execute(*args)

    def executemany(self, *args):
        self._count()
        return self._conn.executemany(*args)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def crash_image(data_dir: Path, dest: Path, wal: bytes | None = None) -> Path:
    """Copy an open data dir to ``dest``, optionally replacing its log.

    Closing the connection first would checkpoint the log into the
    database file and delete it.  The shared-memory index describes the
    live log, so it is dropped; sqlite rebuilds it from the log on open,
    as after a power loss.
    """
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(data_dir, dest)
    if wal is not None:
        (dest / WAL_NAME).write_bytes(wal)
    (dest / SHM_NAME).unlink(missing_ok=True)
    return dest
