"""Journal atomicity of the durable backend (REP102 regression).

``record_rendering`` once wrote outside any transaction.  Every journal
method must commit as exactly one sqlite transaction, so a crash can
never tear it.  A trace callback on the connection shows the statements
each call sends.
"""

from __future__ import annotations

from repro.core.models import CorpusObject
from repro.persistence import SqliteBackend


def _traced(storage, call) -> list[str]:
    statements: list[str] = []
    storage._conn.set_trace_callback(statements.append)
    try:
        call()
    finally:
        storage._conn.set_trace_callback(None)
    return [s.split()[0].upper() for s in statements]


def _obj(object_id: int = 1) -> CorpusObject:
    return CorpusObject(
        object_id=object_id,
        title=f"entry {object_id}",
        defines=[f"term{object_id}"],
        text=f"body {object_id}",
    )


class TestJournalAtomicity:
    def test_record_rendering_commits_one_txn_record(self, tmp_path) -> None:
        storage = SqliteBackend(tmp_path)
        try:
            verbs = _traced(
                storage, lambda: storage.record_rendering(7, "html", "<p>x</p>")
            )
        finally:
            storage.close()
        assert verbs == ["BEGIN", "INSERT", "COMMIT"]

    def test_every_journal_method_appends_only_txn_records(self, tmp_path) -> None:
        storage = SqliteBackend(tmp_path)
        calls = [
            lambda: storage.record_add(_obj(1), invalidated=(2,)),
            lambda: storage.record_update(_obj(1), invalidated=(1,)),
            lambda: storage.record_rendering(1, "html", "<p>1</p>"),
            lambda: storage.record_remove(1, invalidated=(2, 3)),
            storage.record_cache_clear,
        ]
        try:
            traces = [_traced(storage, call) for call in calls]
        finally:
            storage.close()
        for verbs in traces:
            assert len(verbs) >= 3, "journal methods must write"
            assert verbs[0] == "BEGIN" and verbs[-1] == "COMMIT"
            assert not {"BEGIN", "COMMIT", "ROLLBACK"} & set(verbs[1:-1])

    def test_rendering_survives_restart(self, tmp_path) -> None:
        storage = SqliteBackend(tmp_path)
        try:
            storage.record_add(_obj(3), invalidated=())
            storage.record_rendering(3, "html", "<p>restored</p>")
        finally:
            storage.close()
        reopened = SqliteBackend(tmp_path)
        try:
            snapshot = reopened.load()
        finally:
            reopened.close()
        renderings = {
            (r.object_id, r.fmt): r.body for r in snapshot.renderings
        }
        assert renderings[(3, "html")] == "<p>restored</p>"
