"""Linker round trips through the durable sqlite backend.

The acceptance bar: a cold-started linker must reproduce the golden
renderings byte-identically (the same digest as
``tests/core/test_golden_render.py``), the invalidation dirty-set must
survive restarts, and storage failures must degrade the linker to
read-only instead of crashing or silently diverging.
"""

import pickle
import shutil
import sqlite3

import pytest

from repro.core.errors import ReadOnlyError
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.core.morphology import canonicalize_phrase
from repro.persistence import SqliteBackend
from tests.core.test_golden_render import _FORMATS, GOLDEN_SHA256, corpus_digest
from tests.storage.sqlite_faults import FailingConnection

DURABLE_BACKENDS = ("sqlite",)


def build_durable_linker(backend, data_dir, **kwargs) -> NNexus:
    storage = SqliteBackend(data_dir, **kwargs)
    return NNexus(scheme=build_small_msc(), storage=storage)


def render_all(linker) -> dict:
    return {
        object_id: {fmt: linker.render_object(object_id, fmt=fmt) for fmt in _FORMATS}
        for object_id in linker.object_ids()
    }


class TestGoldenRoundTrip:
    @pytest.mark.parametrize("backend", DURABLE_BACKENDS)
    def test_restart_reproduces_golden_renderings(self, tmp_path, backend) -> None:
        linker = build_durable_linker(backend, tmp_path / "data")
        linker.add_objects(sample_corpus())
        assert corpus_digest(render_all(linker)) == GOLDEN_SHA256
        linker.storage.close()

        restarted = build_durable_linker(backend, tmp_path / "data")
        assert len(restarted) == 30
        assert restarted.last_restore["mismatches"] == 0
        assert corpus_digest(render_all(restarted)) == GOLDEN_SHA256
        restarted.storage.close()

    def test_checkpointed_database_restarts(self, tmp_path) -> None:
        linker = build_durable_linker("sqlite", tmp_path / "data")
        linker.add_objects(sample_corpus())
        render_all(linker)
        linker.checkpoint_storage()
        # wal_checkpoint(TRUNCATE) folds every commit into the database
        # file and empties the write-ahead log.
        assert (tmp_path / "data" / "corpus.sqlite3-wal").stat().st_size == 0
        assert not linker.read_only
        linker.storage.close()

        restarted = build_durable_linker("sqlite", tmp_path / "data")
        assert len(restarted) == 30
        assert corpus_digest(render_all(restarted)) == GOLDEN_SHA256
        restarted.storage.close()


def _write_leftover_labels(data_dir) -> None:
    """Add a populated ``labels`` table the way older versions laid it out.

    Written through raw ``sqlite3``, not the backend, so the test keeps
    working without any label API on the backend.
    """
    rows = [
        (obj.object_id, words)
        for obj in sample_corpus()
        for words in {canonicalize_phrase(p) for p in obj.concept_phrases()}
        if words
    ]
    conn = sqlite3.connect(data_dir / "corpus.sqlite3")
    try:
        with conn:
            conn.execute(
                "CREATE TABLE labels (object_id INTEGER NOT NULL, "
                "label TEXT NOT NULL, first_word TEXT NOT NULL, "
                "segment INTEGER NOT NULL, PRIMARY KEY (object_id, label))"
            )
            conn.executemany(
                "INSERT INTO labels VALUES (?, ?, ?, 0)",
                [(oid, " ".join(words), words[0]) for oid, words in rows],
            )
    finally:
        conn.close()


def _has_labels_table(data_dir) -> bool:
    conn = sqlite3.connect(data_dir / "corpus.sqlite3")
    try:
        return bool(
            conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type='table' AND name='labels'"
            ).fetchall()
        )
    finally:
        conn.close()


class TestLeftoverLabelsTable:
    @pytest.mark.parametrize("backend", DURABLE_BACKENDS)
    def test_restart_drops_leftover_labels_table(self, tmp_path, backend) -> None:
        data_dir = tmp_path / "data"
        linker = build_durable_linker(backend, data_dir)
        linker.add_objects(sample_corpus())
        render_all(linker)
        linker.storage.close()
        _write_leftover_labels(data_dir)
        assert _has_labels_table(data_dir)

        restarted = build_durable_linker(backend, data_dir)
        assert corpus_digest(render_all(restarted)) == GOLDEN_SHA256
        restarted.storage.close()
        assert not _has_labels_table(data_dir)


class TestDirtySetSurvival:
    @pytest.mark.parametrize("backend", DURABLE_BACKENDS)
    def test_invalidation_dirty_set_survives_restart(self, tmp_path, backend) -> None:
        linker = build_durable_linker(backend, tmp_path / "data")
        linker.add_objects(sample_corpus())
        render_all(linker)
        # A new definition invalidates entries that may invoke it.
        linker.add_object(
            CorpusObject(
                900,
                "planar graph embedding",
                defines=["planar graph"],
                classes=["05C10"],
                text="An embedding of a planar graph into the plane.",
            )
        )
        dirty_before = linker.cache.invalid_keys()
        assert dirty_before, "the new homonym should have dirtied some entries"
        linker.storage.close()

        restarted = build_durable_linker(backend, tmp_path / "data")
        assert restarted.cache.invalid_keys() == dirty_before
        refreshed = restarted.relink_invalidated()
        assert set(refreshed) == {key[0] for key in dirty_before}
        assert restarted.cache.invalid_keys() == []
        restarted.storage.close()


class TestMutationJournaling:
    @pytest.mark.parametrize("backend", DURABLE_BACKENDS)
    def test_update_remove_policy_survive_restart(self, tmp_path, backend) -> None:
        linker = build_durable_linker(backend, tmp_path / "data")
        linker.add_objects(sample_corpus())
        original = linker.get_object(2)
        linker.update_object(
            CorpusObject(
                2,
                original.title,
                defines=list(original.defines),
                classes=list(original.classes),
                text=original.text + " Updated for the restart test.",
            )
        )
        linker.remove_object(30)
        linker.set_linking_policy(4, "forbid *\n")
        expected = render_all(linker)
        linker.storage.close()

        restarted = build_durable_linker(backend, tmp_path / "data")
        assert restarted.object_ids() == linker.object_ids()
        assert restarted.get_object(2).text.endswith("Updated for the restart test.")
        assert not restarted.has_object(30)
        assert restarted.get_object(4).linking_policy == "forbid *\n"
        assert len(restarted.policy_table) == len(linker.policy_table)
        assert render_all(restarted) == expected
        restarted.storage.close()

    def test_update_journals_one_transaction(self, tmp_path) -> None:
        """A crash between update's remove and add halves must never
        persist a corpus with the entry missing."""
        storage = SqliteBackend(tmp_path / "data")
        linker = NNexus(scheme=build_small_msc(), storage=storage)
        linker.add_objects(sample_corpus())
        before_text = linker.get_object(2).text
        # Statement 1 upserts the object row; statement 2 (dropping its
        # renderings) fails, so sqlite must roll statement 1 back.
        faults = FailingConnection.install(storage, fail_on=2)
        linker.update_object(CorpusObject(2, "planar graph", text="replaced"))
        assert faults.calls == 2
        # The failed journal write degraded the linker, not the caller.
        assert linker.read_only
        storage.close()

        restarted = build_durable_linker("sqlite", tmp_path / "data")
        assert restarted.has_object(2), "update tore into a remove-without-add"
        assert restarted.get_object(2).text == before_text
        restarted.storage.close()


class TestReadOnlyDegradation:
    def test_journal_failure_degrades_to_read_only(self, tmp_path) -> None:
        storage = SqliteBackend(tmp_path / "data")
        linker = NNexus(scheme=build_small_msc(), storage=storage)
        linker.add_objects(sample_corpus())
        assert not linker.read_only

        FailingConnection.install(storage, fail_on=1)
        linker.add_object(CorpusObject(901, "chromatic number", classes=["05C15"]))
        assert linker.read_only
        assert "OperationalError" in linker.storage_error
        assert linker.describe()["read_only"] is True

        # Reads keep serving; writes are refused with the typed error.
        assert linker.render_object(1, fmt="html")
        with pytest.raises(ReadOnlyError):
            linker.add_object(CorpusObject(902, "girth"))
        with pytest.raises(ReadOnlyError):
            linker.remove_object(1)
        with pytest.raises(ReadOnlyError):
            linker.set_linking_policy(1, "forbid *\n")
        storage.close()

        # The failed add rolled back: only the journaled corpus is on disk.
        restarted = build_durable_linker("sqlite", tmp_path / "data")
        assert len(restarted) == 30
        assert not restarted.has_object(901)
        restarted.storage.close()

    def test_checkpoint_failure_degrades_to_read_only(self, tmp_path) -> None:
        storage = SqliteBackend(tmp_path / "data")
        linker = NNexus(scheme=build_small_msc(), storage=storage)
        linker.add_objects(sample_corpus()[:3])
        FailingConnection.install(storage, fail_on=1)
        linker.checkpoint_storage()
        assert linker.read_only
        assert "OperationalError" in linker.storage_error
        storage.close()

    def test_read_only_flag_exported_in_metrics(self, tmp_path) -> None:
        storage = SqliteBackend(tmp_path / "data")
        linker = NNexus(scheme=build_small_msc(), storage=storage)
        gauges = {g["name"]: g["value"] for g in linker.metrics_snapshot()["gauges"]}
        assert gauges["nnexus_storage_read_only"] == 0
        assert "nnexus_cold_start_seconds" in gauges
        storage.close()


class TestRestoreVerification:
    def test_tampered_rendering_is_evicted_on_cold_start(self, tmp_path) -> None:
        data_dir = tmp_path / "data"
        linker = build_durable_linker("sqlite", data_dir)
        linker.add_objects(sample_corpus())
        render_all(linker)
        key = f"{linker.object_ids()[0]}:html"
        linker.storage.close()
        # Tamper with a persisted rendering body behind the linker's back.
        conn = sqlite3.connect(data_dir / "corpus.sqlite3")
        try:
            with conn:
                changed = conn.execute(
                    "UPDATE renderings SET body=? WHERE key=?",
                    ("<p>stale bytes</p>", key),
                ).rowcount
        finally:
            conn.close()
        assert changed == 1

        restarted = build_durable_linker("sqlite", data_dir)
        assert restarted.last_restore["mismatches"] >= 1
        # The evicted entry re-renders to the correct bytes on demand.
        assert corpus_digest(render_all(restarted)) == GOLDEN_SHA256
        restarted.storage.close()


class TestKillPointsThroughTheLinker:
    def test_sampled_wal_truncations_recover_renderable_prefixes(self, tmp_path) -> None:
        """Cut sqlite's write-ahead log of a linked corpus at sampled
        offsets; every cut must cold-start cleanly and render
        byte-identically to a fresh memory-only linker over the same
        recovered object set."""
        origin = tmp_path / "origin"
        storage = SqliteBackend(origin)
        linker = NNexus(scheme=build_small_msc(), storage=storage)
        corpus = sample_corpus()
        linker.add_objects(corpus)
        # Copy while the connection is open: closing would checkpoint
        # the log into the database file and delete it.
        crash = tmp_path / "crash"
        shutil.copytree(origin, crash)
        storage.close()
        wal = (crash / "corpus.sqlite3-wal").read_bytes()

        cuts = list(range(0, len(wal), max(1, len(wal) // 48))) + [len(wal)]
        assert len(cuts) >= 49
        reference_digests: dict[int, str] = {}
        seen_sizes = set()
        for cut in cuts:
            trial = tmp_path / "trial"
            if trial.exists():
                shutil.rmtree(trial)
            shutil.copytree(crash, trial)
            (trial / "corpus.sqlite3-wal").write_bytes(wal[:cut])
            # The shared-memory index describes the uncut log; sqlite
            # rebuilds it from the log on open, as after a power loss.
            (trial / "corpus.sqlite3-shm").unlink(missing_ok=True)
            recovered = build_durable_linker("sqlite", trial)
            recovered_ids = recovered.object_ids()
            size = len(recovered_ids)
            seen_sizes.add(size)
            # Committed prefix: add_objects journals in id order.
            assert recovered_ids == [obj.object_id for obj in corpus[:size]]
            if size not in reference_digests:
                reference = NNexus(scheme=build_small_msc())
                reference.add_objects(corpus[:size])
                reference_digests[size] = corpus_digest(render_all(reference))
            assert corpus_digest(render_all(recovered)) == reference_digests[size]
            recovered.storage.close()
        assert 0 in seen_sizes and len(corpus) in seen_sizes


class TestProcessModeCompatibility:
    def test_pickled_linker_swaps_durable_storage_out(self, tmp_path) -> None:
        linker = build_durable_linker("sqlite", tmp_path / "data")
        linker.add_objects(sample_corpus()[:5])
        clone = pickle.loads(pickle.dumps(linker))
        assert clone.storage is None
        assert len(clone) == 5
        linker.storage.close()
