"""Corpus persistence on stdlib ``sqlite3`` (WAL mode).

Two tables: ``objects`` holds one JSON payload per corpus object, and
``renderings`` holds one row per ``(object, format)`` cached rendering
whose ``valid`` flag is the invalidation dirty-set.  Every ``record_*``
call is one sqlite transaction, so a crash never persists an object
change without its invalidation side-effects.  Durability is delegated
to sqlite: ``journal_mode=WAL`` plus a ``synchronous`` level mapped
from the sync policy (``always``→FULL, ``batch``→NORMAL, ``off``→OFF).
A failed integrity ``quick_check`` on open raises
:class:`StorageCorruptionError`, and so does a directory that holds the
files of the removed engine backend (``wal.jsonl``/``snapshot.json``)
but no database, rather than starting an empty corpus beside them.
Any other ``sqlite3.Error`` surfaces as :class:`StorageError`, which
the linker turns into read-only degradation.

Opening a database drops the ``labels`` table that older versions kept
for a paged concept map; nothing maintains its rows any more.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.errors import StorageCorruptionError, StorageError
from repro.core.models import CorpusObject
from repro.persistence.api import (
    CorpusSnapshot,
    StoredRendering,
    object_from_payload,
    object_to_payload,
)

__all__ = ["SqliteBackend"]

_SYNC_LEVELS = {"always": "FULL", "batch": "NORMAL", "off": "OFF"}

#: Files the removed engine backend kept in its data directory.
_ENGINE_FILES = ("wal.jsonl", "snapshot.json")

#: Bound variables per statement when expanding ``IN (...)`` lists.
#: SQLite's host-parameter limit is 999 on builds older than 3.32, so
#: invalidation sets are chunked well under it (a homonym-heavy remove
#: can invalidate thousands of entries in one journal record).
_SQLITE_MAX_VARS = 500

_DDL = (
    """CREATE TABLE IF NOT EXISTS objects (
        object_id INTEGER PRIMARY KEY,
        payload   TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS renderings (
        key       TEXT PRIMARY KEY,
        object_id INTEGER NOT NULL,
        fmt       TEXT NOT NULL,
        body      TEXT NOT NULL,
        valid     INTEGER NOT NULL
    )""",
    "CREATE INDEX IF NOT EXISTS renderings_object ON renderings(object_id)",
    "DROP TABLE IF EXISTS labels",
)


def _quick_check_problems(conn: sqlite3.Connection) -> list[str]:
    """Non-``ok`` lines of ``PRAGMA quick_check`` (empty = healthy).

    The pragma emits one row per problem (up to its internal limit) and
    a single ``ok`` row only when the database is clean — so every row
    matters, not just the first.
    """
    rows = conn.execute("PRAGMA quick_check").fetchall()
    verdicts = [str(row[0]) for row in rows]
    if verdicts == ["ok"]:
        return []
    return verdicts or ["quick_check returned no rows"]


@contextmanager
def _storage_errors() -> Iterator[None]:
    """Re-raise ``sqlite3.Error`` as :class:`StorageError`.

    The linker degrades to read-only on ``StorageError``; a raw sqlite
    error would instead escape to the caller after the in-memory
    mutation already happened.
    """
    try:
        yield
    except sqlite3.Error as exc:
        raise StorageError(f"{type(exc).__name__}: {exc}") from exc


class SqliteBackend:
    """Durable corpus store on a single sqlite database file."""

    def __init__(self, data_dir: str | Path, *, sync: str = "always") -> None:
        if sync not in _SYNC_LEVELS:
            raise StorageError(f"unknown sync policy {sync!r}")
        self._sync = sync
        directory = Path(data_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self._path = directory / "corpus.sqlite3"
        engine_files = [name for name in _ENGINE_FILES if (directory / name).exists()]
        if engine_files and not self._path.exists():
            raise StorageCorruptionError(
                directory,
                f"holds {', '.join(engine_files)} of the removed engine backend "
                "and no corpus.sqlite3; reload the corpus into a fresh directory",
            )
        self._lock = threading.RLock()
        conn = sqlite3.connect(self._path, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA synchronous={_SYNC_LEVELS[sync]}")
            problems = _quick_check_problems(conn)
            if problems:
                raise StorageCorruptionError(
                    self._path, "quick_check: " + "; ".join(problems)
                )
            with conn:
                for statement in _DDL:
                    conn.execute(statement)
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise StorageCorruptionError(self._path, str(exc)) from exc
        except BaseException:
            # Corruption detected by quick_check (or any other failure):
            # release the handle before propagating, or the open
            # connection leaks as a ResourceWarning.
            conn.close()
            raise
        self._conn = conn

    # ------------------------------------------------------------------
    # Cold start
    # ------------------------------------------------------------------
    def load(self) -> CorpusSnapshot:
        """Read the persisted corpus (empty snapshot when none exists)."""
        with self._lock, _storage_errors():
            object_rows = self._conn.execute(
                "SELECT payload FROM objects ORDER BY object_id"
            ).fetchall()
            rendering_rows = self._conn.execute(
                "SELECT object_id, fmt, body, valid FROM renderings ORDER BY object_id, fmt"
            ).fetchall()
        objects = [object_from_payload(json.loads(row[0])) for row in object_rows]
        renderings = [
            StoredRendering(row[0], row[1], row[2], bool(row[3])) for row in rendering_rows
        ]
        return CorpusSnapshot(objects=objects, renderings=renderings)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def record_add(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        """Journal an object registration plus its invalidation fallout."""
        payload = json.dumps(object_to_payload(obj))
        with self._lock, _storage_errors(), self._conn:
            self._conn.execute(
                "INSERT INTO objects(object_id, payload) VALUES(?, ?) "
                "ON CONFLICT(object_id) DO UPDATE SET payload=excluded.payload",
                (obj.object_id, payload),
            )
            self._mark_invalid(invalidated)

    def record_update(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        """Journal an in-place object replacement (also policy changes)."""
        payload = json.dumps(object_to_payload(obj))
        with self._lock, _storage_errors(), self._conn:
            self._conn.execute(
                "INSERT INTO objects(object_id, payload) VALUES(?, ?) "
                "ON CONFLICT(object_id) DO UPDATE SET payload=excluded.payload",
                (obj.object_id, payload),
            )
            self._conn.execute(
                "DELETE FROM renderings WHERE object_id=?", (obj.object_id,)
            )
            self._mark_invalid(invalidated)

    def record_remove(self, object_id: int, invalidated: Iterable[int]) -> None:
        """Journal an object removal; drops its renderings too."""
        with self._lock, _storage_errors(), self._conn:
            self._conn.execute("DELETE FROM objects WHERE object_id=?", (object_id,))
            self._conn.execute("DELETE FROM renderings WHERE object_id=?", (object_id,))
            self._mark_invalid(invalidated)

    def record_rendering(self, object_id: int, fmt: str, body: str) -> None:
        """Journal a fresh (valid) rendering for one object/format."""
        with self._lock, _storage_errors(), self._conn:
            self._conn.execute(
                "INSERT INTO renderings(key, object_id, fmt, body, valid) "
                "VALUES(?, ?, ?, ?, 1) ON CONFLICT(key) DO UPDATE SET "
                "body=excluded.body, valid=1",
                (f"{object_id}:{fmt}", object_id, fmt, body),
            )

    def record_cache_clear(self) -> None:
        """Journal a full render-cache wipe (ranker/weight changes)."""
        with self._lock, _storage_errors(), self._conn:
            self._conn.execute("DELETE FROM renderings")

    def _mark_invalid(self, invalidated: Iterable[int]) -> None:
        ids = sorted(set(invalidated))
        for start in range(0, len(ids), _SQLITE_MAX_VARS):
            chunk = ids[start : start + _SQLITE_MAX_VARS]
            marks = ",".join("?" for _ in chunk)
            self._conn.execute(
                f"UPDATE renderings SET valid=0 WHERE object_id IN ({marks})", chunk
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Fold the write-ahead log back into the database file."""
        with self._lock, _storage_errors():
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Release the database handle; further journaling is an error."""
        with self._lock:
            self._conn.close()

    def recovery_stats(self) -> dict[str, Any]:
        """What the last cold start read from, for ``last_restore``."""
        return {"backend": "sqlite", "sync": self._sync, "path": str(self._path)}
