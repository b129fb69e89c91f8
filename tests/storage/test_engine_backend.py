"""EngineBackend journal atomicity (REP102 regression).

``record_rendering`` used to issue a bare ``upsert`` — one unframed WAL
record outside any transaction.  All journal methods must commit as a
single framed ``txn`` record so a crash can never tear them.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.models import CorpusObject
from repro.persistence import open_storage


def _wal_ops(data_dir: Path) -> list[dict]:
    ops = []
    for line in (data_dir / "wal.jsonl").read_text().splitlines():
        # Frame format: "<length> <crc> <json payload>".
        ops.append(json.loads(line.split(" ", 2)[2]))
    return ops


def _obj(object_id: int = 1) -> CorpusObject:
    return CorpusObject(
        object_id=object_id,
        title=f"entry {object_id}",
        defines=[f"term{object_id}"],
        text=f"body {object_id}",
    )


class TestJournalAtomicity:
    def test_record_rendering_commits_one_txn_record(self, tmp_path) -> None:
        storage = open_storage("engine", tmp_path)
        try:
            before = len(_wal_ops(tmp_path))
            storage.record_rendering(7, "html", "<p>x</p>")
        finally:
            storage.close()
        appended = _wal_ops(tmp_path)[before:]
        assert [op["op"] for op in appended] == ["txn"]
        inner = appended[0]["records"]
        assert {r["op"] for r in inner} <= {"insert", "update", "upsert"}
        assert inner[0]["table"] == "renderings"

    def test_every_journal_method_appends_only_txn_records(self, tmp_path) -> None:
        storage = open_storage("engine", tmp_path)
        try:
            before = len(_wal_ops(tmp_path))
            storage.record_add(_obj(1), invalidated=())
            storage.record_update(_obj(1), invalidated=(1,))
            storage.record_rendering(1, "html", "<p>1</p>")
            storage.record_remove(1, invalidated=())
            storage.record_cache_clear()
        finally:
            storage.close()
        appended = _wal_ops(tmp_path)[before:]
        assert appended, "journal methods must write WAL records"
        assert {op["op"] for op in appended} == {"txn"}

    def test_rendering_survives_restart(self, tmp_path) -> None:
        storage = open_storage("engine", tmp_path)
        try:
            storage.record_add(_obj(3), invalidated=())
            storage.record_rendering(3, "html", "<p>restored</p>")
        finally:
            storage.close()
        reopened = open_storage("engine", tmp_path)
        try:
            snapshot = reopened.load()
        finally:
            reopened.close()
        renderings = {
            (r.object_id, r.fmt): r.body for r in snapshot.renderings
        }
        assert renderings[(3, "html")] == "<p>restored</p>"
