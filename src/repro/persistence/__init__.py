"""Durable corpus persistence for the NNexus linker.

The production system kept its concept map, linking policies and
invalidation index in MySQL (PAPER §3.1); its successor moved to a
pluggable store.  This package is that seam for the reproduction: a
:class:`CorpusStorage` interface the linker journals every mutation
through, with two backends —

* :class:`MemoryBackend` — no persistence, the default behavior;
* :class:`SqliteBackend` — stdlib ``sqlite3`` in WAL mode, the one
  durable backend (sqlite stands in for the paper's MySQL).

``open_storage()`` is the factory the CLI flags map onto.
"""

from repro.persistence.api import (
    BACKENDS,
    CorpusSnapshot,
    CorpusStorage,
    StoredRendering,
    open_storage,
)
from repro.persistence.memory import MemoryBackend
from repro.persistence.sqlite_backend import SqliteBackend

__all__ = [
    "BACKENDS",
    "CorpusSnapshot",
    "CorpusStorage",
    "StoredRendering",
    "open_storage",
    "MemoryBackend",
    "SqliteBackend",
]
