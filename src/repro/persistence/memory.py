"""The in-memory null backend: today's behavior, zero overhead.

Follows the package's null-object convention (NULL_RECORDER,
NULL_TRACER): the linker journals unconditionally, and this backend
makes every journal call a no-op so the hot path costs one attribute
check.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.models import CorpusObject
from repro.persistence.api import CorpusSnapshot, CorpusStorage

__all__ = ["MemoryBackend"]


class MemoryBackend(CorpusStorage):
    """No persistence: restarts lose everything, exactly as before."""

    backend_name = "memory"
    durable = False

    def load(self) -> CorpusSnapshot:
        return CorpusSnapshot()

    def record_add(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        pass

    def record_update(self, obj: CorpusObject, invalidated: Iterable[int]) -> None:
        pass

    def record_remove(self, object_id: int, invalidated: Iterable[int]) -> None:
        pass

    def record_rendering(self, object_id: int, fmt: str, body: str) -> None:
        pass

    def record_cache_clear(self) -> None:
        pass

    def recovery_stats(self) -> dict[str, Any]:
        return {"backend": self.backend_name, "durable": False}
