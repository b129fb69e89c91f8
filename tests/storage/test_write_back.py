"""Write-back of fresh renderings and the one-transaction bulk load.

``SqliteBackend.record_rendering`` buffers its row; ``checkpoint()`` and
``close()`` write the buffer in one transaction.  Each mutation flips
the buffered rows of the ids it invalidates to ``valid=0`` and drops
those of the entry it updates or removes, so no buffered row lands as
valid after a mutation invalidated it.  ``NNexus.add_objects`` journals
its whole load as one transaction.
"""

import gc
import shutil
import sqlite3
import warnings

import pytest

from repro.core.errors import DuplicateObjectError, StorageError
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.persistence import SqliteBackend
from tests.storage.sqlite_faults import SHM_NAME, FailingConnection


def entry(object_id: int, text: str = "") -> CorpusObject:
    return CorpusObject(object_id=object_id, title=f"entry {object_id}", text=text)


def file_rows(data_dir) -> list[tuple]:
    """The renderings table, read with a connection of its own."""
    conn = sqlite3.connect(data_dir / "corpus.sqlite3")
    try:
        return conn.execute(
            "SELECT key, body, valid FROM renderings ORDER BY key"
        ).fetchall()
    finally:
        conn.close()


def traced_verbs(conn: sqlite3.Connection, call) -> list[str]:
    """First word of every statement ``call`` sends on ``conn``."""
    statements: list[str] = []
    conn.set_trace_callback(statements.append)
    call()
    return [statement.split()[0].upper() for statement in statements]


def open_linker(data_dir) -> NNexus:
    return NNexus(scheme=build_small_msc(), storage=SqliteBackend(data_dir))


def render_every(linker: NNexus) -> dict[int, str]:
    return {oid: linker.render_object(oid) for oid in linker.object_ids()}


def rebuilt_renderings(objects) -> dict[int, str]:
    fresh = NNexus(scheme=build_small_msc())
    fresh.add_objects(objects)
    return render_every(fresh)


class TestMutationsReachTheBuffer:
    @pytest.mark.parametrize("mutation", ["add", "bulk", "update", "remove"])
    def test_invalidated_buffered_row_lands_dirty_at_close(
        self, tmp_path, mutation
    ) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_bulk_add([entry(1), entry(2), entry(3)], ())
        backend.record_rendering(1, "html", "<p>1</p>")
        backend.record_rendering(1, "text", "1")
        backend.record_rendering(3, "html", "<p>3</p>")
        if mutation == "add":
            backend.record_add(entry(4), invalidated=(1,))
        elif mutation == "bulk":
            backend.record_bulk_add([entry(4), entry(5)], invalidated=(1,))
        elif mutation == "update":
            backend.record_update(entry(2, "new"), invalidated=(1,))
        else:
            backend.record_remove(2, invalidated=(1,))
        backend.close()
        assert file_rows(tmp_path) == [
            ("1:html", "<p>1</p>", 0),
            ("1:text", "1", 0),
            ("3:html", "<p>3</p>", 1),
        ]

    @pytest.mark.parametrize("mutation", ["update", "remove"])
    def test_updated_or_removed_entry_row_never_lands(self, tmp_path, mutation) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_bulk_add([entry(1), entry(2)], ())
        backend.record_rendering(1, "html", "<p>old 1</p>")
        backend.record_rendering(2, "html", "<p>2</p>")
        if mutation == "update":
            backend.record_update(entry(1, "new"), invalidated=())
        else:
            backend.record_remove(1, invalidated=())
        backend.close()
        assert file_rows(tmp_path) == [("2:html", "<p>2</p>", 1)]

    def test_rerender_after_invalidation_lands_valid(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(entry(1), ())
        backend.record_rendering(1, "html", "<p>before</p>")
        backend.record_add(entry(2), invalidated=(1,))
        backend.record_rendering(1, "html", "<p>after</p>")
        backend.close()
        assert file_rows(tmp_path) == [("1:html", "<p>after</p>", 1)]

    def test_cache_clear_and_invalidate_all_reach_the_buffer(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_bulk_add([entry(1), entry(2)], ())
        backend.record_rendering(1, "html", "<p>1</p>")
        backend.record_invalidate_all()
        backend.checkpoint()
        assert file_rows(tmp_path) == [("1:html", "<p>1</p>", 0)]
        backend.record_rendering(2, "html", "<p>2</p>")
        backend.record_cache_clear()
        backend.close()
        assert file_rows(tmp_path) == []

    def test_linker_rows_at_close_match_its_cache(self, tmp_path) -> None:
        linker = open_linker(tmp_path)
        linker.add_objects(sample_corpus())
        render_every(linker)
        linker.add_object(
            CorpusObject(900, "planar graph embedding", defines=["planar graph"],
                         classes=["05C10"], text="An embedding of a planar graph.")
        )
        dirty = {f"{oid}:{fmt}" for oid, fmt in linker.cache.invalid_keys()}
        assert dirty
        assert file_rows(tmp_path) == []  # nothing flushed yet
        linker.storage.close()
        rows = file_rows(tmp_path)
        assert {key for key, _, valid in rows if not valid} == dirty
        assert len(rows) == len(sample_corpus())


class TestFlushIsOneTransaction:
    def test_checkpoint_writes_the_buffer_as_one_transaction(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_bulk_add([entry(1), entry(2)], ())
        for object_id in (1, 2):
            backend.record_rendering(object_id, "html", f"<p>{object_id}</p>")
        backend.record_rendering(1, "text", "1")
        try:
            verbs = traced_verbs(backend._conn, backend.checkpoint)
            again = traced_verbs(backend._conn, backend.checkpoint)
        finally:
            backend.close()
        assert verbs == ["BEGIN", "INSERT", "INSERT", "INSERT", "COMMIT", "PRAGMA"]
        assert again == ["PRAGMA"]  # the buffer is empty once written

    def test_close_writes_the_buffer_as_one_transaction(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_bulk_add([entry(1), entry(2)], ())
        for object_id in (1, 2):
            backend.record_rendering(object_id, "html", f"<p>{object_id}</p>")
        verbs = traced_verbs(backend._conn, backend.close)
        assert verbs == ["BEGIN", "INSERT", "INSERT", "COMMIT"]
        assert [key for key, _, _ in file_rows(tmp_path)] == ["1:html", "2:html"]

    def test_view_misses_send_nothing_until_the_checkpoint(self, tmp_path) -> None:
        linker = open_linker(tmp_path)
        try:
            linker.add_objects(sample_corpus())
            conn = linker.storage._conn
            views = traced_verbs(conn, lambda: render_every(linker))
            flush = traced_verbs(conn, linker.checkpoint_storage)
        finally:
            linker.storage.close()
        assert views == []
        assert flush == ["BEGIN", *["INSERT"] * len(sample_corpus()), "COMMIT", "PRAGMA"]


class TestCrashImage:
    def test_crash_copy_restores_no_stale_valid_row(self, tmp_path) -> None:
        origin = tmp_path / "origin"
        linker = open_linker(origin)
        linker.add_objects(sample_corpus())
        render_every(linker)
        # Invalidate buffered rows, then write them: they must land dirty.
        linker.add_object(
            CorpusObject(900, "planar graph embedding", defines=["planar graph"],
                         classes=["05C10"], text="An embedding of a planar graph.")
        )
        linker.checkpoint_storage()
        # Unflushed work the crash loses: re-renders and one more edit.
        render_every(linker)
        linker.update_object(
            CorpusObject(5, "graph", defines=["graph", "network"], classes=["05C99"],
                         text="Vertices joined by edges.")
        )
        render_every(linker)
        # Copy while the connection is open: closing would flush the
        # buffer and checkpoint the log into the database file.
        crash = tmp_path / "crash"
        shutil.copytree(origin, crash)
        (crash / SHM_NAME).unlink(missing_ok=True)
        live = [linker.get_object(oid) for oid in linker.object_ids()]
        linker.storage.close()

        rows = file_rows(crash)
        valid = {key: body for key, body, flag in rows if flag}
        assert valid, "the checkpoint must have written the clean rows"
        assert len(valid) < len(rows), "the invalidated rows must be on file, dirty"
        expected = rebuilt_renderings(live)
        for key, body in valid.items():
            assert body == expected[int(key.split(":")[0])], key

        recovered = open_linker(crash)
        try:
            assert recovered.last_restore["mismatches"] == 0
            assert recovered.object_ids() == [obj.object_id for obj in live]
            assert render_every(recovered) == expected
        finally:
            recovered.storage.close()


class TestFailingFlush:
    def test_failed_flush_degrades_and_close_releases_the_handle(self, tmp_path) -> None:
        data_dir = tmp_path / "data"
        linker = open_linker(data_dir)
        linker.add_objects(sample_corpus())
        render_every(linker)
        storage = linker.storage
        real_conn = storage._conn
        # Call 1 is the flush's executemany, before the log is folded.
        faults = FailingConnection.install(storage, fail_on=1)
        linker.checkpoint_storage()
        assert faults.calls == 1
        assert linker.read_only
        assert "OperationalError" in linker.storage_error
        # The failed flush kept the buffer; the close retries it and
        # fails again, but still releases the handle.
        FailingConnection.install(storage, fail_on=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StorageError, match="OperationalError"):
                storage.close()
            del linker, storage, faults
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]
        with pytest.raises(sqlite3.ProgrammingError):
            real_conn.execute("SELECT 1")
        # The lost rows cost one re-render each and nothing else.
        assert file_rows(data_dir) == []
        reopened = open_linker(data_dir)
        try:
            assert render_every(reopened) == rebuilt_renderings(sample_corpus())
        finally:
            reopened.storage.close()


class TestBulkLoadTransaction:
    def test_add_objects_on_sqlite_is_one_transaction(self, tmp_path) -> None:
        linker = open_linker(tmp_path)
        try:
            corpus = sample_corpus()
            verbs = traced_verbs(
                linker.storage._conn, lambda: linker.add_objects(corpus)
            )
        finally:
            linker.storage.close()
        assert verbs == ["BEGIN", *["INSERT"] * len(corpus), "COMMIT"]

    def test_fault_mid_load_leaves_none_of_the_load(self, tmp_path) -> None:
        corpus = sample_corpus()
        first, second = corpus[:15], corpus[15:]
        data_dir = tmp_path / "data"
        linker = open_linker(data_dir)
        linker.add_objects(first)
        render_every(linker)  # the second half's adds now invalidate
        storage = linker.storage
        # Call 1 inserts the second half's objects; call 2, the
        # invalidation of stored renderings, fails before the commit.
        faults = FailingConnection.install(storage, fail_on=2)
        linker.add_objects(second)
        assert faults.calls == 2
        assert linker.read_only
        storage.close()

        reopened = open_linker(data_dir)
        try:
            assert reopened.object_ids() == [obj.object_id for obj in first]
            # The first half's renderings match the corpus on file, so
            # the close wrote them valid.
            assert reopened.last_restore["renderings"] == len(first)
            assert reopened.cache.invalid_keys() == []
            assert reopened.last_restore["mismatches"] == 0
            assert render_every(reopened) == rebuilt_renderings(first)
        finally:
            reopened.storage.close()

    def test_failing_entry_journals_the_entries_before_it(self, tmp_path) -> None:
        corpus = sample_corpus()
        linker = open_linker(tmp_path)
        with pytest.raises(DuplicateObjectError):
            linker.add_objects([*corpus[:3], corpus[0]])
        assert linker.object_ids() == [obj.object_id for obj in corpus[:3]]
        linker.storage.close()
        reopened = open_linker(tmp_path)
        try:
            assert reopened.object_ids() == [obj.object_id for obj in corpus[:3]]
        finally:
            reopened.storage.close()
