"""Rendered-entry cache with invalidation marks (Section 2.5).

After the invalidation index identifies which entries may link to a newly
added concept, those entries are marked dirty in the cache table so they
are re-linked before being displayed again — linking work is deferred to
the next view instead of being done eagerly for the whole corpus.

Entries are keyed by ``(object_id, fmt)``: an entry rendered as HTML and
as Markdown occupies two cache slots that are *invalidated and dropped
together* (invalidation is per object — a corpus change stales every
rendering of the affected entry, whatever its format).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.obs.memory import (
    estimate_container,
    estimate_dict_entry,
    estimate_object,
    estimate_set_entry,
    estimate_str,
)

__all__ = ["CacheEntry", "RenderCache", "DEFAULT_FORMAT"]

#: Format assumed when callers don't say (the common HTML path).
DEFAULT_FORMAT = "html"


@dataclass
class CacheEntry:
    """One cached rendering of an entry in one format."""

    object_id: int
    rendered: str
    valid: bool = True
    version: int = 0
    fmt: str = DEFAULT_FORMAT


def _entry_cost(entry: CacheEntry) -> int:
    """Incremental byte estimate for one cached rendering.

    Covers the rendering payload, the entry shell, the ``(id, fmt)``
    key tuple and the slots it occupies in ``_entries``/``_formats``.
    """
    return (
        estimate_str(entry.rendered)
        + estimate_str(entry.fmt)
        + estimate_container(2)  # the (object_id, fmt) key tuple
        + estimate_object(5)  # CacheEntry with five fields
        + estimate_dict_entry()  # _entries slot
        + estimate_set_entry()  # _formats membership
    )


class RenderCache:
    """``(object_id, fmt)``-keyed cache of rendered (linked) entries.

    The cache never renders by itself: the linker looks a rendering up
    with :meth:`get` and stores a fresh one with :meth:`put`, so the
    cache stays independent of the linker.  Hit/miss/invalidation
    counters support the scalability experiments and are exported
    through the metrics snapshot.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, str], CacheEntry] = {}
        # object id -> formats cached for it, so per-object invalidation
        # and removal touch every format without scanning the table.
        self._formats: dict[int, set[str]] = defaultdict(set)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # Incremental byte estimate, maintained on mutation only (the
        # read path never touches it); folded into metrics_snapshot as
        # nnexus_memory_bytes{component="render_cache"} at scrape time
        # and reconciled against a deep sample by the memory accountant.
        self.estimated_bytes = 0

    def put(self, object_id: int, rendered: str, fmt: str = DEFAULT_FORMAT) -> CacheEntry:
        """Store a fresh rendering, bumping that (id, fmt) slot's version."""
        key = (object_id, fmt)
        previous = self._entries.get(key)
        version = previous.version + 1 if previous else 1
        entry = CacheEntry(
            object_id=object_id, rendered=rendered, valid=True, version=version, fmt=fmt
        )
        if previous is not None:
            self.estimated_bytes -= _entry_cost(previous)
        self._entries[key] = entry
        self._formats[object_id].add(fmt)
        self.estimated_bytes += _entry_cost(entry)
        return entry

    def restore(
        self,
        object_id: int,
        rendered: str,
        fmt: str = DEFAULT_FORMAT,
        valid: bool = True,
    ) -> CacheEntry:
        """Reinstall a persisted rendering on cold start.

        Unlike :meth:`put` this can reinstall a *dirty* entry (so the
        invalidation dirty-set survives a restart) and touches no
        hit/miss counters — a restart is not cache traffic.
        """
        entry = CacheEntry(
            object_id=object_id, rendered=rendered, valid=valid, version=1, fmt=fmt
        )
        previous = self._entries.get((object_id, fmt))
        if previous is not None:
            self.estimated_bytes -= _entry_cost(previous)
        self._entries[(object_id, fmt)] = entry
        self._formats[object_id].add(fmt)
        self.estimated_bytes += _entry_cost(entry)
        return entry

    def get(self, object_id: int, fmt: str = DEFAULT_FORMAT) -> str | None:
        """Cached rendering if present *and* still valid."""
        entry = self._entries.get((object_id, fmt))
        if entry is None or not entry.valid:
            self.misses += 1
            return None
        self.hits += 1
        return entry.rendered

    def invalidate(self, object_ids: Iterable[int]) -> int:
        """Mark every cached format of each id dirty; returns entries flipped."""
        flipped = 0
        for object_id in object_ids:
            for fmt in self._formats.get(object_id, ()):
                entry = self._entries.get((object_id, fmt))
                if entry is not None and entry.valid:
                    entry.valid = False
                    flipped += 1
                    self.invalidations += 1
        return flipped

    def drop(self, object_id: int) -> None:
        """Forget an entry's every format (e.g. after object removal)."""
        for fmt in self._formats.pop(object_id, ()):
            entry = self._entries.pop((object_id, fmt), None)
            if entry is not None:
                self.estimated_bytes -= _entry_cost(entry)

    def invalid_ids(self) -> list[int]:
        """Object ids with at least one rendering awaiting re-linking."""
        return sorted({key[0] for key, entry in self._entries.items() if not entry.valid})

    def invalid_keys(self) -> list[tuple[int, str]]:
        """Every dirty ``(object_id, fmt)`` slot, sorted."""
        return sorted(key for key, entry in self._entries.items() if not entry.valid)

    def is_valid(self, object_id: int, fmt: str = DEFAULT_FORMAT) -> bool:
        """True when a clean rendering is cached for this id and format."""
        entry = self._entries.get((object_id, fmt))
        return entry is not None and entry.valid

    def formats_for(self, object_id: int) -> frozenset[str]:
        """Formats currently cached (valid or dirty) for an entry."""
        return frozenset(self._formats.get(object_id, ()))

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Empty the cache (counters are preserved)."""
        self._entries.clear()
        self._formats.clear()
        self.estimated_bytes = 0

    def memory_roots(self) -> tuple[object, ...]:
        """Live structures for the memory accountant's deep sampler."""
        return (self._entries, self._formats)

    def counter_snapshot(self) -> dict[str, int]:
        """Hit/miss/invalidation totals for the metrics exporter."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }
