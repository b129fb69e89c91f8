"""The records a durable store reads back.

:class:`~repro.persistence.sqlite_backend.SqliteBackend` journals linker
mutations (object add/update/remove, a bulk load, policy changes, cache
invalidation) and can rebuild the full linker state on a cold start.
Each ``record_*`` call that journals a mutation covers ONE linker
operation and is atomic on disk: either the object change *and* its
invalidation side-effects land together, or neither does.
``record_rendering`` is not such a call: a fresh rendering is derived
data, buffered in memory and written at the next ``checkpoint()`` or
``close()``, so a crash loses only unflushed rows, one re-render each.

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

from repro.core.models import CorpusObject

__all__ = ["CorpusSnapshot", "StoredRendering"]


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
