"""The records a durable store reads back, and their JSON payloads.

:class:`~repro.persistence.sqlite_backend.SqliteBackend` journals linker
mutations (object add/update/remove, policy changes, cache
invalidation) and can rebuild the full linker state on a cold start.
Each ``record_*`` call covers ONE linker operation and is atomic on
disk: either the object change *and* its invalidation side-effects land
together, or neither does.

The persisted rendering rows double as the invalidation dirty-set: a
rendering stored with ``valid=False`` is exactly a cache entry awaiting
``relink_invalidated()``, so restoring rows with their flags reproduces
the pre-crash dirty-set without a separate table.

The store keeps objects and renderings only.  The concept map is derived
from the objects' ``defines`` and is rebuilt on every cold start, so it
has no table of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.models import CorpusObject

__all__ = [
    "CorpusSnapshot",
    "StoredRendering",
    "object_to_payload",
    "object_from_payload",
]


def object_to_payload(obj: CorpusObject) -> dict[str, Any]:
    """JSON-safe dict for one corpus object (same shape as corpus files)."""
    return {
        "object_id": obj.object_id,
        "title": obj.title,
        "defines": list(obj.defines),
        "synonyms": list(obj.synonyms),
        "classes": list(obj.classes),
        "text": obj.text,
        "domain": obj.domain,
        "linking_policy": obj.linking_policy,
    }


def object_from_payload(payload: Mapping[str, Any]) -> CorpusObject:
    """Inverse of :func:`object_to_payload`."""
    return CorpusObject(
        object_id=int(payload["object_id"]),
        title=str(payload.get("title", "")),
        defines=[str(x) for x in payload.get("defines", [])],
        synonyms=[str(x) for x in payload.get("synonyms", [])],
        classes=[str(x) for x in payload.get("classes", [])],
        text=str(payload.get("text", "")),
        domain=str(payload.get("domain", "default")),
        linking_policy=str(payload.get("linking_policy", "")),
    )


@dataclass(frozen=True)
class StoredRendering:
    """One persisted render-cache entry (``valid=False`` == dirty)."""

    object_id: int
    fmt: str
    body: str
    valid: bool


@dataclass
class CorpusSnapshot:
    """Everything a cold-starting linker restores from its store."""

    objects: list[CorpusObject] = field(default_factory=list)
    renderings: list[StoredRendering] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.objects
