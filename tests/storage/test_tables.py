"""Tests for the NNexus table layout on sqlite and linker round-tripping.

The corpus lives in two tables: ``objects`` (one JSON payload per
entry) and ``renderings`` (cached output with a ``valid`` flag).  The
concept map, policy table and steering are derived from the objects on
every cold start.
"""

import sqlite3

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.persistence.sqlite_backend import SqliteBackend


def rows(data_dir, sql: str, *params) -> list[tuple]:
    """Read the tables with a connection of their own."""
    conn = sqlite3.connect(data_dir / "corpus.sqlite3")
    try:
        return conn.execute(sql, params).fetchall()
    finally:
        conn.close()


def linker_over(data_dir) -> NNexus:
    return NNexus(scheme=build_small_msc(), storage=SqliteBackend(data_dir))


def restarted(linker: NNexus, data_dir) -> NNexus:
    linker.storage.close()
    return linker_over(data_dir)


class TestSaveLoad:
    def test_object_round_trip(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        obj = CorpusObject(
            object_id=7,
            title="even number",
            defines=["even number", "even"],
            synonyms=["even integer"],
            classes=["11A05"],
            text="Divisible by two.",
            domain="planetmath",
            linking_policy="forbid even\npermit even 11\n",
        )
        backend.record_add(obj, ())
        backend.close()
        reopened = SqliteBackend(tmp_path)
        assert reopened.load().objects == [obj]
        reopened.close()

    def test_missing_object_is_none(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(CorpusObject(1, "a"), ())
        backend.close()
        assert rows(tmp_path, "SELECT payload FROM objects WHERE object_id=?", 404) == []

    def test_save_replaces_dependents(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_object(CorpusObject(1, "a", defines=["alpha"], classes=["05"]))
        linker.update_object(CorpusObject(1, "a", defines=["beta"], classes=["03"]))
        linker = restarted(linker, tmp_path)
        assert linker.concept_map.owners("alpha") == frozenset()
        assert linker.concept_map.owners("beta") == {1}
        assert linker.get_object(1).classes == ["03"]
        linker.storage.close()

    def test_delete_object_cleans_everything(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_object(
            CorpusObject(1, "a", defines=["alpha"], classes=["05"],
                         linking_policy="forbid alpha\n")
        )
        linker.render_object(1, fmt="html")
        linker.checkpoint_storage()  # the flush writes the buffered rendering
        assert rows(tmp_path, "SELECT count(*) FROM renderings") == [(1,)]
        linker.remove_object(1)
        linker = restarted(linker, tmp_path)
        assert not linker.has_object(1)
        assert linker.concept_map.owners("alpha") == frozenset()
        assert len(linker.policy_table) == 0
        assert rows(tmp_path, "SELECT count(*) FROM objects") == [(0,)]
        assert rows(tmp_path, "SELECT count(*) FROM renderings") == [(0,)]
        linker.storage.close()

    def test_save_corpus_counts(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_objects(sample_corpus())
        linker.storage.close()
        assert rows(tmp_path, "SELECT count(*) FROM objects") == [(30,)]

    def test_concepts_defining_homonyms(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_objects(sample_corpus())
        linker = restarted(linker, tmp_path)
        assert sorted(linker.concept_map.owners("graph")) == [5, 6]
        linker.storage.close()


class TestPolicyAndCache:
    def test_set_policy(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_object(CorpusObject(1, "a", defines=["alpha"]))
        linker.set_linking_policy(1, "forbid alpha\n")
        linker = restarted(linker, tmp_path)
        assert linker.get_object(1).linking_policy == "forbid alpha\n"
        linker.set_linking_policy(1, "")
        linker = restarted(linker, tmp_path)
        assert linker.get_object(1).linking_policy == ""
        linker.storage.close()

    def test_cache_invalidation(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path)
        backend.record_add(CorpusObject(1, "a", defines=["alpha"]), ())
        backend.record_rendering(1, "html", "<p>x</p>")
        backend.record_add(CorpusObject(2, "b", defines=["beta"]), invalidated=[1, 99])
        backend.close()
        assert rows(tmp_path, "SELECT object_id, valid FROM renderings") == [(1, 0)]


class TestLinkerRoundTrip:
    def test_rebuild_linker_from_store(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_objects(sample_corpus())
        linker = restarted(linker, tmp_path)
        assert len(linker) == 30
        document = linker.link_text("every planar graph", source_classes=["05C10"])
        assert [link.target_id for link in document.links] == [2]
        linker.storage.close()

    def test_policies_survive_round_trip(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_objects(sample_corpus())
        linker = restarted(linker, tmp_path)
        doc = linker.link_text("even so it holds", source_classes=["05C99"])
        assert all(link.source_phrase != "even" for link in doc.links)
        linker.storage.close()


class TestPersistentStore:
    def test_reopen_from_disk(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_objects(sample_corpus())
        linker.checkpoint_storage()
        linker = restarted(linker, tmp_path)
        assert len(linker) == 30
        assert linker.get_object(5).title == "graph"
        linker.storage.close()

    def test_fresh_ids_continue_after_reopen(self, tmp_path) -> None:
        linker = linker_over(tmp_path)
        linker.add_object(CorpusObject(1, "a", defines=["alpha"], classes=["05"]))
        linker = restarted(linker, tmp_path)
        linker.add_object(CorpusObject(2, "b", defines=["beta"], classes=["03"]))
        assert linker.concept_map.owners("beta") == {2}
        linker = restarted(linker, tmp_path)
        assert linker.object_ids() == [1, 2]
        linker.storage.close()
