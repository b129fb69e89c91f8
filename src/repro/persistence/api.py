"""The ``CorpusStorage`` interface and backend factory.

A backend journals linker mutations (object add/update/remove, policy
changes, cache invalidation) and can rebuild the full linker state on a
cold start.  Each ``record_*`` call covers ONE linker operation and must
be atomic on disk: either the object change *and* its invalidation
side-effects land together, or neither does.

The persisted rendering rows double as the invalidation dirty-set: a
rendering stored with ``valid=False`` is exactly a cache entry awaiting
``relink_invalidated()``, so restoring rows with their flags reproduces
the pre-crash dirty-set without a separate table.

Backends store objects and renderings only.  The concept map is derived
from the objects' ``defines`` and is rebuilt on every cold start, so it
has no table of its own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.errors import NNexusError
from repro.core.models import CorpusObject

__all__ = [
    "BACKENDS",
    "CorpusSnapshot",
    "CorpusStorage",
    "StoredRendering",
    "object_to_payload",
    "object_from_payload",
    "open_storage",
]

#: Backend names accepted by :func:`open_storage` and the server CLI.
BACKENDS = ("memory", "sqlite")


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
    """Everything a cold-starting linker restores from a backend."""

    objects: list[CorpusObject] = field(default_factory=list)
    renderings: list[StoredRendering] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.objects


class CorpusStorage(ABC):
    """Journal + cold-start source for the linker's corpus state."""

    #: Factory name of this backend (``memory``/``sqlite``).
    backend_name: str = "abstract"
    #: False for backends whose ``record_*`` calls are no-ops.
    durable: bool = False

    # ------------------------------------------------------------------
    # Cold start
    # ------------------------------------------------------------------
    @abstractmethod
    def load(self) -> CorpusSnapshot:
        """Read the persisted corpus (empty snapshot when none exists)."""

    # ------------------------------------------------------------------
    # Journal — one atomic record per linker mutation
    # ------------------------------------------------------------------
    @abstractmethod
    def record_add(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        """Journal an object registration plus its invalidation fallout."""

    @abstractmethod
    def record_update(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        """Journal an in-place object replacement (also policy changes)."""

    @abstractmethod
    def record_remove(self, object_id: int, invalidated: Iterable[int]) -> None:
        """Journal an object removal; drops its renderings too."""

    @abstractmethod
    def record_rendering(self, object_id: int, fmt: str, body: str) -> None:
        """Journal a fresh (valid) rendering for one object/format."""

    @abstractmethod
    def record_cache_clear(self) -> None:
        """Journal a full render-cache wipe (ranker/weight changes)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Compact the journal (no-op for backends without one)."""

    def close(self) -> None:
        """Release file handles; further journaling is an error."""

    def recovery_stats(self) -> dict[str, Any]:
        """What the last cold start replayed (backend-specific keys)."""
        return {"backend": self.backend_name}


def open_storage(
    backend: str = "memory",
    data_dir: str | Path | None = None,
    *,
    sync: str = "always",
) -> CorpusStorage:
    """Build a backend from CLI-shaped options.

    ``memory`` ignores ``data_dir``; ``sqlite`` requires it.
    """
    from repro.persistence.memory import MemoryBackend
    from repro.persistence.sqlite_backend import SqliteBackend

    if backend == "memory":
        return MemoryBackend()
    if data_dir is None:
        raise NNexusError(f"backend {backend!r} requires a data directory")
    if backend == "sqlite":
        return SqliteBackend(data_dir, sync=sync)
    raise NNexusError(f"unknown storage backend {backend!r}; expected one of {BACKENDS}")
