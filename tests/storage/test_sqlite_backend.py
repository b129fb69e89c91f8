"""SqliteBackend regressions: host-parameter limits, open-failure
hygiene, quick_check parsing, engine-era directories and error
translation.
"""

import gc
import sqlite3
import warnings

import pytest

from repro.core.errors import StorageCorruptionError, StorageError
from repro.core.models import CorpusObject
from repro.persistence.sqlite_backend import (
    _SQLITE_MAX_VARS,
    SqliteBackend,
    _quick_check_problems,
)
from tests.storage.sqlite_faults import FailingConnection


def make_object(object_id: int) -> CorpusObject:
    return CorpusObject(
        object_id=object_id,
        title=f"entry {object_id}",
        text=f"body of {object_id}",
    )


class TestMarkInvalidChunking:
    def test_chunk_size_is_under_the_999_parameter_limit(self) -> None:
        # SQLite builds older than 3.32 cap host parameters at 999; a
        # single IN (...) with one ? per id breaks there.
        assert _SQLITE_MAX_VARS <= 999

    def test_invalidating_more_ids_than_the_limit_marks_all_rows(
        self, tmp_path
    ) -> None:
        backend = SqliteBackend(tmp_path)
        total = _SQLITE_MAX_VARS * 2 + 7  # forces at least three chunks
        for object_id in range(total):
            backend.record_add(make_object(object_id), ())
            backend.record_rendering(object_id, "html", f"<p>{object_id}</p>")
        backend.checkpoint()  # the flush writes every buffered rendering
        backend.record_add(make_object(total), ())
        # One journal record invalidates every other entry at once —
        # the homonym-heavy-removal shape that used to overflow.
        backend.record_remove(total, range(total))
        snapshot = backend.load()
        assert len(snapshot.renderings) == total
        assert all(not rendering.valid for rendering in snapshot.renderings)
        backend.close()


class TestOpenFailureHygiene:
    def test_corrupt_file_raises_and_closes_the_connection(self, tmp_path) -> None:
        (tmp_path / "corpus.sqlite3").write_bytes(b"this is not a database\x00" * 64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StorageCorruptionError):
                SqliteBackend(tmp_path)
            gc.collect()  # a leaked connection surfaces as a ResourceWarning
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_reports_quick_check_verdicts(self, tmp_path) -> None:
        # A structurally valid sqlite file that fails quick_check is the
        # other open-failure path; emulate it at the parsing layer.
        class FakeCursor:
            def __init__(self, rows):
                self._rows = rows

            def fetchall(self):
                return self._rows

        class FakeConn:
            def __init__(self, rows):
                self._rows = rows

            def execute(self, sql):
                assert "quick_check" in sql
                return FakeCursor(self._rows)

        assert _quick_check_problems(FakeConn([("ok",)])) == []
        # Multi-row output: every problem row matters, not just the first.
        assert _quick_check_problems(
            FakeConn([("row 12 missing from index foo",), ("ok",)])
        ) == ["row 12 missing from index foo", "ok"]
        assert _quick_check_problems(FakeConn([])) == [
            "quick_check returned no rows"
        ]

    def test_healthy_open_round_trips(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(make_object(1), ())
        backend.close()
        reopened = SqliteBackend(tmp_path)
        assert [obj.object_id for obj in reopened.load().objects] == [1]
        reopened.close()

    @pytest.mark.parametrize("leftover", ["wal.jsonl", "snapshot.json"])
    def test_refuses_engine_era_directory(self, tmp_path, leftover) -> None:
        (tmp_path / leftover).write_text("{}\n")
        with pytest.raises(StorageCorruptionError, match=leftover):
            SqliteBackend(tmp_path)
        assert not (tmp_path / "corpus.sqlite3").exists()

    def test_engine_files_beside_a_database_are_ignored(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(make_object(1), ())
        backend.close()
        (tmp_path / "wal.jsonl").write_text("{}\n")
        reopened = SqliteBackend(tmp_path)
        assert [obj.object_id for obj in reopened.load().objects] == [1]
        reopened.close()


class TestErrorTranslation:
    def test_failed_journal_write_raises_storage_error_and_rolls_back(
        self, tmp_path
    ) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(make_object(1), ())
        backend.record_rendering(1, "html", "<p>1</p>")
        backend.checkpoint()  # the flush writes the buffered rendering
        real_conn = backend._conn
        # Statement 1 deletes the object row, statement 2 its renderings.
        FailingConnection.install(backend, fail_on=2)
        with pytest.raises(StorageError, match="OperationalError") as excinfo:
            backend.record_remove(1, ())
        assert isinstance(excinfo.value.__cause__, sqlite3.OperationalError)
        backend._conn = real_conn
        snapshot = backend.load()
        assert [obj.object_id for obj in snapshot.objects] == [1]
        assert len(snapshot.renderings) == 1
        backend.close()

    @pytest.mark.parametrize("method", ["load", "checkpoint"])
    def test_reads_and_checkpoints_raise_storage_error(self, tmp_path, method) -> None:
        backend = SqliteBackend(tmp_path)
        FailingConnection.install(backend, fail_on=1)
        with pytest.raises(StorageError, match="OperationalError"):
            getattr(backend, method)()
        backend.close()
