"""Crash-recovery torture tests for the sqlite corpus store.

The invariant under test: whatever kill point is injected — the
write-ahead log cut at any offset, a torn or bit-flipped tail, a failed
checkpoint, a statement failing mid-transaction — reopening the data
directory recovers exactly a *prefix of committed journal records*.
Never part of a record, never a later record without an earlier one,
never silent loss of state that a commit already made durable.
"""

import struct

import pytest

from repro.core.errors import StorageCorruptionError, StorageError
from repro.core.models import CorpusObject
from repro.persistence.sqlite_backend import SqliteBackend
from tests.storage.sqlite_faults import (
    SHM_NAME,
    WAL_NAME,
    FailingConnection,
    crash_image,
)

#: sqlite's WAL header and per-frame header sizes, in bytes.
WAL_HEADER = 32
FRAME_HEADER = 24


def entry(object_id: int, text: str) -> CorpusObject:
    return CorpusObject(object_id=object_id, title=f"entry {object_id}", text=text)


def state(backend: SqliteBackend) -> tuple[dict, dict]:
    """Object texts and rendering validity, as one comparable value."""
    snapshot = backend.load()
    return (
        {obj.object_id: obj.text for obj in snapshot.objects},
        {(r.object_id, r.fmt): r.valid for r in snapshot.renderings},
    )


def reopened_state(data_dir) -> tuple[dict, dict]:
    backend = SqliteBackend(data_dir)
    try:
        return state(backend)
    finally:
        backend.close()


def build_committed_history(backend: SqliteBackend) -> list[tuple[dict, dict]]:
    """Run a scripted journal; return the state after each commit.

    Mixes adds, renderings, invalidating adds, updates and removes so
    the log holds every record shape the linker writes.
    """
    states = [state(backend)]
    backend.record_add(entry(1, "one"), ())
    states.append(state(backend))
    backend.record_rendering(1, "html", "<p>one</p>")
    states.append(state(backend))
    backend.record_add(entry(2, "two"), invalidated=(1,))
    states.append(state(backend))
    backend.record_update(entry(1, "one-revised"), invalidated=(2,))
    states.append(state(backend))
    backend.record_remove(2, ())
    states.append(state(backend))
    backend.record_add(entry(4, "four"), ())
    states.append(state(backend))
    return states


def frame_boundary_cuts(wal: bytes) -> list[int]:
    """Every offset class of a cut through ``wal``.

    sqlite replays only whole frames whose checksum chain holds, so the
    recovered state can change only where a frame starts or ends.
    Cutting on and beside every boundary covers every distinct outcome.
    """
    page_size = struct.unpack(">I", wal[8:12])[0]
    frame = FRAME_HEADER + page_size
    boundaries = [0, WAL_HEADER] + list(range(WAL_HEADER + frame, len(wal) + 1, frame))
    cuts = {c + d for c in boundaries for d in (-1, 0, 1)}
    return sorted(c for c in cuts if 0 <= c <= len(wal))


def crashed_history(tmp_path):
    origin = tmp_path / "origin"
    backend = SqliteBackend(origin)
    states = build_committed_history(backend)
    crash = crash_image(origin, tmp_path / "crash")
    backend.close()
    return states, crash, (crash / WAL_NAME).read_bytes()


class TestEveryByteOffset:
    def test_wal_truncated_at_every_offset_recovers_a_committed_prefix(
        self, tmp_path
    ) -> None:
        states, crash, wal = crashed_history(tmp_path)
        assert len(wal) > WAL_HEADER

        reached: set[int] = set()
        for cut in frame_boundary_cuts(wal):
            trial = crash_image(crash, tmp_path / "trial", wal=wal[:cut])
            recovered = reopened_state(trial)
            matching = [i for i, s in enumerate(states) if s == recovered]
            assert matching, (
                f"cut at byte {cut} recovered a state that was never "
                f"committed: {recovered!r}"
            )
            reached.add(matching[0])
        # Sanity on the harness itself: both the empty prefix and the
        # full history must be reachable, plus intermediate commits.
        assert 0 in reached
        assert len(states) - 1 in reached
        assert len(reached) >= 4

    def test_recovery_is_monotone_in_cut_offset(self, tmp_path) -> None:
        """Longer surviving log prefixes never recover *older* states."""
        states, crash, wal = crashed_history(tmp_path)
        last_index = 0
        for cut in frame_boundary_cuts(wal):
            trial = crash_image(crash, tmp_path / "trial", wal=wal[:cut])
            index = states.index(reopened_state(trial))
            assert index >= last_index
            last_index = index


def torn_tail(wal: bytes) -> bytes:
    """The log plus the first half of a copy of its last frame."""
    page_size = struct.unpack(">I", wal[8:12])[0]
    last_frame = wal[-(FRAME_HEADER + page_size):]
    return wal + last_frame[: len(last_frame) // 2]


class TestTornTailAppend:
    def test_append_after_torn_tail_survives_the_next_recovery(self, tmp_path) -> None:
        """A commit made after recovering from a torn log must survive
        the *next* recovery too."""
        origin = tmp_path / "origin"
        backend = SqliteBackend(origin)
        backend.record_add(entry(1, "a"), ())
        crash = crash_image(origin, tmp_path / "crash")
        backend.close()
        wal_path = crash / WAL_NAME
        wal_path.write_bytes(torn_tail(wal_path.read_bytes()))

        survivor = SqliteBackend(crash)
        assert state(survivor)[0] == {1: "a"}
        survivor.record_add(entry(2, "b"), ())
        survivor.close()

        assert reopened_state(crash)[0] == {1: "a", 2: "b"}, (
            "commit after torn-tail recovery was lost on the next recovery"
        )

    def test_torn_tail_is_truncated_on_disk(self, tmp_path) -> None:
        origin = tmp_path / "origin"
        backend = SqliteBackend(origin)
        backend.record_add(entry(1, "a"), ())
        crash = crash_image(origin, tmp_path / "crash")
        backend.close()
        wal_path = crash / WAL_NAME
        wal_path.write_bytes(torn_tail(wal_path.read_bytes()))

        survivor = SqliteBackend(crash)
        survivor.checkpoint()
        assert (crash / WAL_NAME).stat().st_size == 0
        assert state(survivor)[0] == {1: "a"}
        survivor.close()

    def test_bit_flip_mid_wal_stops_replay_before_it(self, tmp_path) -> None:
        origin = tmp_path / "origin"
        backend = SqliteBackend(origin)
        wal_sizes = []
        for object_id in (1, 2, 3):
            backend.record_add(entry(object_id, f"v{object_id}"), ())
            wal_sizes.append((origin / WAL_NAME).stat().st_size)
        crash = crash_image(origin, tmp_path / "crash")
        backend.close()
        wal = bytearray((crash / WAL_NAME).read_bytes())
        # Corrupt one byte inside the SECOND add's frames.
        wal[(wal_sizes[0] + wal_sizes[1]) // 2] ^= 0xFF
        (crash / WAL_NAME).write_bytes(bytes(wal))
        # The checksum chain rejects the flipped frame and every later one.
        assert reopened_state(crash)[0] == {1: "v1"}


class TestCheckpointFaults:
    def populated(self, path) -> SqliteBackend:
        backend = SqliteBackend(path)
        backend.record_add(entry(1, "a"), ())
        backend.record_add(entry(2, "b"), ())
        return backend

    def failing_checkpoint(self, backend: SqliteBackend) -> None:
        real_conn = backend._conn
        FailingConnection.install(backend, fail_on=1)
        with pytest.raises(StorageError):
            backend.checkpoint()
        backend._conn = real_conn

    def test_failed_tmp_fsync_preserves_previous_state(self, tmp_path) -> None:
        """A checkpoint that fails before folding the log into the
        database file loses nothing the log already holds."""
        backend = self.populated(tmp_path / "db")
        self.failing_checkpoint(backend)
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        backend.close()
        assert reopened_state(crash)[0] == {1: "a", 2: "b"}

    def test_failed_rename_preserves_previous_state(self, tmp_path) -> None:
        """A failed second checkpoint keeps the first one plus every
        commit logged after it."""
        backend = self.populated(tmp_path / "db")
        backend.checkpoint()  # first checkpoint succeeds
        backend.record_add(entry(3, "c"), ())
        self.failing_checkpoint(backend)
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        backend.close()
        assert reopened_state(crash)[0] == {1: "a", 2: "b", 3: "c"}

    def test_stale_snapshot_tmp_is_ignored_and_cleaned(self, tmp_path) -> None:
        """A shared-memory index left by a crashed process is rebuilt
        from the log, not trusted, and removed on a clean close."""
        backend = self.populated(tmp_path / "db")
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        backend.close()
        (crash / SHM_NAME).write_bytes(b"\xff" * 32768)
        assert reopened_state(crash)[0] == {1: "a", 2: "b"}
        assert not (crash / SHM_NAME).exists()


class TestTornCommit:
    def test_short_write_tears_the_whole_transaction(self, tmp_path) -> None:
        backend = SqliteBackend(tmp_path / "db")
        backend.record_add(entry(1, "before"), ())
        backend.record_add(entry(2, "other"), ())
        backend.record_rendering(2, "html", "<p>other</p>")
        backend.checkpoint()  # the flush writes the buffered rendering
        # Statement 1 rewrites the object row, statement 2 (dropping its
        # renderings) fails before the invalidation of entry 2 runs.
        FailingConnection.install(backend, fail_on=2)
        with pytest.raises(StorageError):
            backend.record_update(entry(1, "mutated"), invalidated=(2,))
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        backend._conn._conn.close()
        # All-or-nothing: neither half of the record survived.
        assert reopened_state(crash) == ({1: "before", 2: "other"}, {(2, "html"): True})


class TestSnapshotCorruption:
    def checkpointed(self, path) -> bytearray:
        backend = SqliteBackend(path)
        backend.record_add(entry(1, "a"), ())
        backend.checkpoint()
        backend.close()
        return bytearray((path / "corpus.sqlite3").read_bytes())

    def test_checksum_mismatch_raises_corruption_error(self, tmp_path) -> None:
        path = tmp_path / "db"
        image = self.checkpointed(path)
        page_size = struct.unpack(">H", image[16:18])[0]
        # Page 2 is the root of the first table created (``objects``);
        # clobber its b-tree page header.
        image[page_size : page_size + 8] = b"\x00" + b"\xff" * 7
        (path / "corpus.sqlite3").write_bytes(bytes(image))
        with pytest.raises(StorageCorruptionError, match="malformed"):
            SqliteBackend(path)

    def test_unparseable_snapshot_raises_corruption_error(self, tmp_path) -> None:
        path = tmp_path / "db"
        image = self.checkpointed(path)
        image[0:16] = b"not a database!\x00"
        (path / "corpus.sqlite3").write_bytes(bytes(image))
        with pytest.raises(StorageCorruptionError, match="not a database"):
            SqliteBackend(path)


class TestSyncPolicies:
    @pytest.mark.parametrize("sync", ["always", "batch", "off"])
    def test_round_trip_under_every_policy(self, tmp_path, sync) -> None:
        backend = SqliteBackend(tmp_path, sync=sync)
        backend.record_add(entry(3, "three"), ())
        backend.checkpoint()
        backend.record_rendering(3, "html", "<p>restored</p>")
        backend.close()
        reopened = SqliteBackend(tmp_path, sync=sync)
        snapshot = reopened.load()
        reopened.close()
        assert [obj.object_id for obj in snapshot.objects] == [3]
        assert [(r.object_id, r.fmt, r.body, r.valid) for r in snapshot.renderings] == [
            (3, "html", "<p>restored</p>", True)
        ]

    def test_unknown_policy_rejected(self, tmp_path) -> None:
        with pytest.raises(StorageError, match="unknown sync policy"):
            SqliteBackend(tmp_path, sync="sometimes")

    def test_recovery_stats_counts_replay(self, tmp_path) -> None:
        states, crash, _ = crashed_history(tmp_path)
        reopened = SqliteBackend(crash, sync="batch")
        assert reopened.recovery_stats() == {
            "backend": "sqlite",
            "sync": "batch",
            "path": str(crash / "corpus.sqlite3"),
        }
        # Every committed record was replayed from the uncheckpointed log.
        assert state(reopened) == states[-1]
        reopened.close()
