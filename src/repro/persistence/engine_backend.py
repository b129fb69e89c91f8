"""Corpus persistence on the embedded storage engine (snapshot + WAL).

Two tables:

* ``objects`` — one JSON payload per corpus object (the policy text
  travels inside the payload, mirroring ``CorpusObject``);
* ``renderings`` — one row per ``(object, format)`` cached rendering,
  keyed ``"<object_id>:<fmt>"``, with a ``valid`` flag that doubles as
  the invalidation dirty-set.

Every ``record_*`` call is one engine transaction, which the hardened
engine journals as ONE framed WAL record — so a crash can never
persist an object change without its invalidation side-effects.

Opening a data directory drops the ``labels`` table that older versions
kept for a paged concept map; nothing maintains its rows any more.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

from repro.core.models import CorpusObject
from repro.persistence.api import (
    CorpusSnapshot,
    CorpusStorage,
    StoredRendering,
    object_from_payload,
    object_to_payload,
)
from repro.storage.engine import Column, Database, Schema

__all__ = ["EngineBackend"]

_OBJECTS_SCHEMA = Schema(
    columns=(Column("object_id", "int"), Column("payload", "json")),
    primary_key="object_id",
)

_RENDERINGS_SCHEMA = Schema(
    columns=(
        Column("key", "str"),
        Column("object_id", "int"),
        Column("fmt", "str"),
        Column("body", "str"),
        Column("valid", "bool"),
    ),
    primary_key="key",
)

class EngineBackend(CorpusStorage):
    """Durable backend on :class:`repro.storage.engine.Database`."""

    backend_name = "engine"
    durable = True

    def __init__(
        self,
        data_dir: str | Path,
        *,
        sync: str = "always",
        persist_renderings: bool = True,
        faults: Any | None = None,
    ) -> None:
        self.persist_renderings = persist_renderings
        self._db = Database(Path(data_dir), sync=sync, faults=faults)
        if not self._db.has_table("objects"):
            self._db.create_table("objects", _OBJECTS_SCHEMA)
        if not self._db.has_table("renderings"):
            self._db.create_table("renderings", _RENDERINGS_SCHEMA, indexes=("object_id",))
        if self._db.has_table("labels"):
            self._db.drop_table("labels")

    @property
    def database(self) -> Database:
        """The underlying engine (tests poke at its WAL directly)."""
        return self._db

    # ------------------------------------------------------------------
    # Cold start
    # ------------------------------------------------------------------
    def load(self) -> CorpusSnapshot:
        objects = [
            object_from_payload(row["payload"])
            for row in self._db.table("objects").scan()
        ]
        objects.sort(key=lambda obj: obj.object_id)
        renderings = [
            StoredRendering(row["object_id"], row["fmt"], row["body"], row["valid"])
            for row in self._db.table("renderings").scan()
        ]
        renderings.sort(key=lambda r: (r.object_id, r.fmt))
        return CorpusSnapshot(objects=objects, renderings=renderings)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def record_add(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        with self._db.transaction():
            self._db.upsert(
                "objects", {"object_id": obj.object_id, "payload": object_to_payload(obj)}
            )
            self._mark_invalid(invalidated)

    def record_update(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        with self._db.transaction():
            self._db.upsert(
                "objects", {"object_id": obj.object_id, "payload": object_to_payload(obj)}
            )
            # The replaced entry's stored renderings are stale bodies;
            # drop them so a cold start cannot serve them as valid.
            for row in self._db.table("renderings").select(object_id=obj.object_id):
                self._db.delete("renderings", row["key"])
            self._mark_invalid(invalidated)

    def record_remove(self, object_id: int, invalidated: Iterable[int]) -> None:
        with self._db.transaction():
            if object_id in self._db.table("objects"):
                self._db.delete("objects", object_id)
            for row in self._db.table("renderings").select(object_id=object_id):
                self._db.delete("renderings", row["key"])
            self._mark_invalid(invalidated)

    def record_rendering(self, object_id: int, fmt: str, body: str) -> None:
        with self._db.transaction():
            self._db.upsert(
                "renderings",
                {
                    "key": f"{object_id}:{fmt}",
                    "object_id": object_id,
                    "fmt": fmt,
                    "body": body,
                    "valid": True,
                },
            )

    def record_cache_clear(self) -> None:
        with self._db.transaction():
            for key in self._db.table("renderings").keys():
                self._db.delete("renderings", key)

    def _mark_invalid(self, invalidated: Iterable[int]) -> None:
        table = self._db.table("renderings")
        for object_id in sorted(set(invalidated)):
            for row in table.select(object_id=object_id):
                if row["valid"]:
                    self._db.update("renderings", row["key"], {"valid": False})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        self._db.checkpoint()

    def close(self) -> None:
        self._db.close()

    def recovery_stats(self) -> dict[str, Any]:
        stats = self._db.last_recovery.to_dict()
        stats["backend"] = self.backend_name
        stats["sync"] = self._db.sync_policy
        return stats
