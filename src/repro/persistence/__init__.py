"""Durable corpus persistence for the NNexus linker.

The production system kept its concept map, linking policies and
invalidation index in MySQL (PAPER §3.1).  Here one store stands in for
it: :class:`SqliteBackend`, stdlib ``sqlite3`` in WAL mode.  A linker
given one (``NNexus(storage=SqliteBackend(data_dir))``, or the server's
``--data-dir``) cold-starts from it and journals every mutation through
it; a linker without one keeps its corpus in memory only.
"""

from repro.persistence.api import CorpusSnapshot, StoredRendering
from repro.persistence.sqlite_backend import SqliteBackend

__all__ = [
    "CorpusSnapshot",
    "StoredRendering",
    "SqliteBackend",
]
