"""Tests for the embedded storage engine: stdlib ``sqlite3`` as
``SqliteBackend`` drives it (schema, row operations, index use,
transactions and write-ahead-log replay)."""

import json
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import StorageError
from repro.core.models import CorpusObject, object_from_payload
from repro.persistence.sqlite_backend import SqliteBackend
from tests.storage.sqlite_faults import WAL_NAME, FailingConnection, crash_image


def entry(object_id: int, text: str = "", **fields) -> CorpusObject:
    return CorpusObject(object_id=object_id, title=f"entry {object_id}", text=text, **fields)


def objects(backend: SqliteBackend) -> dict[int, CorpusObject]:
    return {obj.object_id: obj for obj in backend.load().objects}


def reopened_objects(data_dir) -> dict[int, CorpusObject]:
    backend = SqliteBackend(data_dir)
    try:
        return objects(backend)
    finally:
        backend.close()


class TestSchema:
    def test_schema_round_trip(self, tmp_path) -> None:
        full = CorpusObject(
            object_id=11,
            title="spanning tree",
            defines=["spanning tree"],
            synonyms=["spanning forest"],
            classes=["05C05"],
            text="A tree containing every vertex.",
            domain="planetmath",
            linking_policy="permit tree 05\n",
        )
        backend = SqliteBackend(tmp_path)
        backend.record_add(full, ())
        backend.close()
        assert reopened_objects(tmp_path) == {11: full}

    def test_nullable_defaults(self, tmp_path) -> None:
        # A payload row that predates the optional fields still loads.
        assert object_from_payload({"object_id": 5}) == CorpusObject(5, "")
        backend = SqliteBackend(tmp_path)
        with backend._conn:
            backend._conn.execute(
                "INSERT INTO objects(object_id, payload) VALUES(?, ?)",
                (5, json.dumps({"object_id": 5, "title": "old"})),
            )
        backend.close()
        loaded = reopened_objects(tmp_path)[5]
        assert (loaded.title, loaded.defines, loaded.domain) == ("old", [], "default")


class TestCrud:
    def test_insert_get(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada"), ())
        assert objects(backend)[1].text == "ada"
        backend.close()

    def test_update(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada"), ())
        backend.record_rendering(1, "html", "<p>ada</p>")
        backend.record_update(entry(1, "ada lovelace"), ())
        assert objects(backend)[1].text == "ada lovelace"
        # An update drops the entry's own cached renderings.
        assert backend.load().renderings == []
        backend.close()

    def test_delete(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada"), ())
        backend.record_add(entry(2, "bob"), ())
        backend.record_remove(1, ())
        assert list(objects(backend)) == [2]
        backend.record_remove(1, ())  # removing an absent entry is a no-op
        assert list(objects(backend)) == [2]
        backend.close()

    def test_upsert(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "first"), ())
        backend.record_add(entry(1, "second"), ())
        assert {k: v.text for k, v in objects(backend).items()} == {1: "second"}
        backend.close()

    def test_rows_returned_are_copies(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada", defines=["ada"]), ())
        loaded = objects(backend)[1]
        loaded.defines.append("mutated")
        assert objects(backend)[1].defines == ["ada"]
        backend.close()


class TestQueries:
    def test_select_on_indexed_column(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        plan = backend._conn.execute(
            "EXPLAIN QUERY PLAN DELETE FROM renderings WHERE object_id=?", (1,)
        ).fetchall()
        backend.close()
        # Per-entry rendering deletes use the index, not a table scan.
        assert any("USING INDEX renderings_object" in row[-1] for row in plan)


class TestTables:
    def test_tables_listing(self, tmp_path) -> None:
        SqliteBackend(tmp_path).close()
        conn = sqlite3.connect(tmp_path / "corpus.sqlite3")
        try:
            names = conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name"
            ).fetchall()
        finally:
            conn.close()
        assert names == [("objects",), ("renderings",)]


class TestTransactions:
    def test_commit_keeps_changes(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada"), ())
        # A second connection sees the row while the first stays open.
        conn = sqlite3.connect(tmp_path / "corpus.sqlite3")
        try:
            assert conn.execute("SELECT object_id FROM objects").fetchall() == [(1,)]
        finally:
            conn.close()
        backend.close()

    def test_rollback_on_exception(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada"), ())
        backend.record_rendering(1, "html", "<p>ada</p>")
        backend.checkpoint()  # the flush writes the buffered rendering
        real_conn = backend._conn
        # Statement 1 inserts entry 2; statement 2 (invalidating 1) fails.
        FailingConnection.install(backend, fail_on=2)
        with pytest.raises(StorageError):
            backend.record_add(entry(2, "bob"), invalidated=(1,))
        backend._conn = real_conn
        assert list(objects(backend)) == [1]
        assert [r.valid for r in backend.load().renderings] == [True]
        backend.close()


class TestPersistence:
    def test_wal_replay(self, tmp_path) -> None:
        origin = tmp_path / "db"
        backend = SqliteBackend(origin)
        backend.record_add(entry(1, "ada"), ())
        backend.record_update(entry(1, "ada, 36"), ())
        backend.record_add(entry(2, "bob"), ())
        backend.record_remove(2, ())
        crash = crash_image(origin, tmp_path / "crash")
        backend.close()
        assert (crash / WAL_NAME).stat().st_size > 0
        assert {k: v.text for k, v in reopened_objects(crash).items()} == {1: "ada, 36"}

    def test_checkpoint_truncates_wal(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada"), ())
        assert (tmp_path / WAL_NAME).stat().st_size > 0
        backend.checkpoint()
        assert (tmp_path / WAL_NAME).stat().st_size == 0
        backend.record_add(entry(2, "bob"), ())
        backend.close()
        assert list(reopened_objects(tmp_path)) == [1, 2]

    def test_torn_wal_tail_ignored(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path / "db")
        backend.record_add(entry(1, "ada"), ())
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        backend.close()
        with open(crash / WAL_NAME, "ab") as handle:
            handle.write(b"\x00\x00\x00\x02 torn frame header")
        assert list(reopened_objects(crash)) == [1]

    def test_rolled_back_transaction_not_in_wal(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1, "ada"), ())
        real_conn = backend._conn
        FailingConnection.install(backend, fail_on=2)
        with pytest.raises(StorageError):
            backend.record_add(entry(7, "ghost"), invalidated=(1,))
        backend._conn = real_conn
        wal = (tmp_path / WAL_NAME).read_bytes()
        database = (tmp_path / "corpus.sqlite3").read_bytes()
        backend.close()
        assert b"ghost" not in wal and b"ghost" not in database


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "remove", "update"]), st.integers(0, 5)),
        max_size=25,
    )
)
def test_wal_replay_reaches_identical_state(ops) -> None:
    """Whatever op sequence runs, reopening from the log rebuilds the same rows."""
    with tempfile.TemporaryDirectory() as tmp:
        _check_wal_replay(ops, Path(tmp))


def _check_wal_replay(ops, root: Path) -> None:
    backend = SqliteBackend(root / "db")
    for step, (op, key) in enumerate(ops):
        if op == "add":
            backend.record_add(entry(key, f"v{step}"), ())
        elif op == "remove":
            backend.record_remove(key, ())
        else:
            backend.record_update(entry(key, f"u{step}"), invalidated=(key + 1,))
    expected = backend.load()
    crash = crash_image(root / "db", root / "crash")
    backend.close()
    replayed = SqliteBackend(crash)
    try:
        assert replayed.load() == expected
    finally:
        replayed.close()
