"""The bulk load on the sqlite store.

``add_objects`` skips the invalidation search for an entry while nothing
is rendered, and journals the whole load as one record.  The store must
hold the same rows as after ``add_object`` entry by entry: the same
objects, and the same renderings with the same ``valid`` flags, before
and after a reopen.
"""

import sqlite3

import pytest

from repro.core.linker import NNexus
from repro.persistence import SqliteBackend
from tests.core.test_linker import BULK_CORPORA, bulk_corpus, linker_state, render_every


def open_linker(scheme, data_dir) -> NNexus:
    return NNexus(scheme=scheme, storage=SqliteBackend(data_dir))


def stored_rows(data_dir) -> dict[str, list[tuple]]:
    """The objects and renderings tables, read past the backend."""
    with sqlite3.connect(data_dir / "corpus.sqlite3") as conn:
        rows = {
            "objects": conn.execute(
                "SELECT object_id, payload FROM objects ORDER BY object_id"
            ).fetchall(),
            "renderings": conn.execute(
                "SELECT key, body, valid FROM renderings ORDER BY key"
            ).fetchall(),
        }
    conn.close()
    return rows


def invalid_keys(data_dir) -> list[str]:
    return [key for key, _, valid in stored_rows(data_dir)["renderings"] if not valid]


def reopened_state(scheme, data_dir) -> tuple[dict, dict]:
    """A cold start's state and renderings; the store is closed after."""
    linker = open_linker(scheme, data_dir)
    try:
        assert linker.last_restore["mismatches"] == 0
        state = linker_state(linker)
        return state, render_every(linker)
    finally:
        linker.storage.close()


@pytest.mark.parametrize("name", BULK_CORPORA)
def test_bulk_load_of_an_empty_store_equals_adds_one_by_one(tmp_path, name) -> None:
    scheme, objects = bulk_corpus(name)
    bulk_dir, single_dir = tmp_path / "bulk", tmp_path / "single"
    bulk, single = open_linker(scheme, bulk_dir), open_linker(scheme, single_dir)
    try:
        bulk.add_objects(objects)
        for obj in objects:
            single.add_object(obj)
        assert linker_state(bulk) == linker_state(single)
        assert stored_rows(bulk_dir) == stored_rows(single_dir)
        assert render_every(bulk) == render_every(single)
        assert stored_rows(bulk_dir) == stored_rows(single_dir)
    finally:
        bulk.storage.close()
        single.storage.close()
    assert reopened_state(scheme, bulk_dir) == reopened_state(scheme, single_dir)


@pytest.mark.parametrize("name", BULK_CORPORA)
def test_bulk_load_onto_stored_renderings_marks_what_add_object_would(
    tmp_path, name
) -> None:
    scheme, objects = bulk_corpus(name)
    half = len(objects) // 2
    bulk_dir, single_dir = tmp_path / "bulk", tmp_path / "single"
    for data_dir in (bulk_dir, single_dir):
        linker = open_linker(scheme, data_dir)
        linker.add_objects(objects[:half])
        render_every(linker)
        linker.storage.close()
    bulk, single = open_linker(scheme, bulk_dir), open_linker(scheme, single_dir)
    try:
        bulk.add_objects(objects[half:])
        for obj in objects[half:]:
            single.add_object(obj)
        assert linker_state(bulk) == linker_state(single)
    finally:
        bulk.storage.close()
        single.storage.close()
    dirty = invalid_keys(single_dir)
    assert dirty, "the second half must dirty stored renderings of the first"
    assert invalid_keys(bulk_dir) == dirty
    assert stored_rows(bulk_dir) == stored_rows(single_dir)
    assert reopened_state(scheme, bulk_dir) == reopened_state(scheme, single_dir)
