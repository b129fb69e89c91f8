"""Startup/shutdown hygiene of ``python -m repro.server`` (the CLI).

Regression suite for the REP103 findings the invariant checker
surfaced: a failed startup (occupied port, missing corpus file) used to
leak the opened storage backend and the trace exporter because nothing
between opening the ``SqliteBackend`` and the serve loop's ``finally``
closed them.  ``--data-dir`` alone turns durability on.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.models import CorpusObject
from repro.server import __main__ as server_main
from repro.server.client import NNexusClient


class _Recorder:
    """Wraps SqliteBackend/JsonlExporter so close() calls are observable."""

    def __init__(self, monkeypatch) -> None:
        self.closed: list[str] = []
        recorder = self

        real_open = server_main.SqliteBackend

        def tracking_open(*args, **kwargs):
            storage = real_open(*args, **kwargs)
            original_close = storage.close

            def close() -> None:
                recorder.closed.append("storage")
                original_close()

            storage.close = close  # type: ignore[method-assign]
            return storage

        class FakeExporter:
            def __init__(self, path) -> None:
                self.path = path

            def export(self, spans) -> None:  # pragma: no cover - unused
                pass

            def close(self) -> None:
                recorder.closed.append("exporter")

        monkeypatch.setattr(server_main, "SqliteBackend", tracking_open)
        monkeypatch.setattr(server_main, "JsonlExporter", FakeExporter)


@pytest.fixture()
def recorder(monkeypatch) -> _Recorder:
    return _Recorder(monkeypatch)


def _occupied_port() -> tuple[socket.socket, int]:
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    return blocker, blocker.getsockname()[1]


class TestStartupFailureHygiene:
    def test_occupied_port_returns_one_and_closes_resources(
        self, tmp_path, recorder
    ) -> None:
        blocker, port = _occupied_port()
        try:
            rc = server_main.main(
                [
                    "--host",
                    "127.0.0.1",
                    "--port",
                    str(port),
                    "--data-dir",
                    str(tmp_path / "data"),
                    "--trace-jsonl",
                    str(tmp_path / "trace.jsonl"),
                ]
            )
        finally:
            blocker.close()
        assert rc == 1
        assert "storage" in recorder.closed
        assert "exporter" in recorder.closed

    def test_storage_reopens_cleanly_after_bind_failure(self, tmp_path) -> None:
        """The database handle must actually be released, not just flagged."""
        data_dir = tmp_path / "data"
        blocker, port = _occupied_port()
        try:
            assert (
                server_main.main(
                    [
                        "--host",
                        "127.0.0.1",
                        "--port",
                        str(port),
                        "--data-dir",
                        str(data_dir),
                    ]
                )
                == 1
            )
        finally:
            blocker.close()
        # sqlite deletes the write-ahead log when its last connection
        # closes, so a leftover log means the handle leaked.
        assert (data_dir / "corpus.sqlite3").exists()
        assert not (data_dir / "corpus.sqlite3-wal").exists()
        storage = server_main.SqliteBackend(data_dir)
        try:
            assert storage.load().objects == []
        finally:
            storage.close()

    def test_missing_corpus_file_fails_cleanly_and_closes_storage(
        self, tmp_path, recorder
    ) -> None:
        # FileNotFoundError is an OSError: handled as an operator error.
        rc = server_main.main(
            [
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--data-dir",
                str(tmp_path / "data"),
                "--corpus",
                str(tmp_path / "does-not-exist.json"),
            ]
        )
        assert rc == 1
        assert "storage" in recorder.closed

    @pytest.mark.parametrize(
        "payload", ["[]", '{"objects": [{"title": "x"}]}', "not json"]
    )
    def test_malformed_corpus_returns_one_and_closes_resources(
        self, tmp_path, recorder, capsys, payload
    ) -> None:
        corpus = tmp_path / "corpus.json"
        corpus.write_text(payload)
        rc = server_main.main(
            [
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--data-dir",
                str(tmp_path / "data"),
                "--corpus",
                str(corpus),
                "--trace-jsonl",
                str(tmp_path / "trace.jsonl"),
            ]
        )
        assert rc == 1
        assert "server.corpus_invalid" in capsys.readouterr().err
        assert "storage" in recorder.closed
        assert "exporter" in recorder.closed

    def test_non_oserror_startup_failure_still_closes_storage(
        self, tmp_path, recorder, monkeypatch
    ) -> None:
        def exploding_corpus(path):
            raise RuntimeError("corrupt corpus payload")

        monkeypatch.setattr(server_main, "load_corpus", exploding_corpus)
        corpus = tmp_path / "corpus.json"
        corpus.write_text("[]")
        with pytest.raises(RuntimeError):
            server_main.main(
                [
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--data-dir",
                    str(tmp_path / "data"),
                    "--corpus",
                    str(corpus),
                ]
            )
        assert "storage" in recorder.closed


class TestEngineEraDataDir:
    @pytest.mark.parametrize("leftover", ["wal.jsonl", "snapshot.json"])
    def test_refuses_directory_of_the_removed_engine_backend(
        self, tmp_path, recorder, leftover
    ) -> None:
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / leftover).write_text("{}\n")
        rc = server_main.main(
            [
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--data-dir",
                str(data_dir),
                "--trace-jsonl",
                str(tmp_path / "trace.jsonl"),
            ]
        )
        assert rc == 1
        # No empty corpus was started beside the old files.
        assert not (data_dir / "corpus.sqlite3").exists()
        assert "exporter" in recorder.closed


class TestDataDirTurnsDurabilityOn:
    """``--data-dir`` alone opens the sqlite store and journals to it."""

    @staticmethod
    def _run_main(monkeypatch, argv):
        """Start ``main(argv)`` on a thread; returns its server and thread."""
        started: list = []

        class RecordingServer(server_main.NNexusServer):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(server_main, "NNexusServer", RecordingServer)
        exits: list[int] = []
        thread = threading.Thread(target=lambda: exits.append(server_main.main(argv)))
        thread.start()
        deadline = time.monotonic() + 30
        while not started and thread.is_alive():
            if time.monotonic() > deadline:
                pytest.fail("server never started")
            time.sleep(0.01)
        assert started, "main() exited before serving"
        return started[0], thread, exits

    @staticmethod
    def _stop(server, thread, exits) -> None:
        server.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert exits == [0]

    def test_added_object_survives_a_restart(self, tmp_path, monkeypatch) -> None:
        data_dir = tmp_path / "data"
        argv = ["--host", "127.0.0.1", "--port", "0", "--data-dir", str(data_dir)]
        entry = CorpusObject(
            object_id=7,
            title="planar graph",
            defines=["planar graph"],
            classes=["05C10"],
            text="A graph that can be drawn without crossings.",
        )

        server, thread, exits = self._run_main(monkeypatch, argv)
        try:
            assert server.linker.storage is not None
            with NNexusClient(*server.address) as client:
                client.add_object(entry)
        finally:
            self._stop(server, thread, exits)

        server, thread, exits = self._run_main(monkeypatch, argv)
        try:
            assert server.linker.last_restore["objects"] == 1
            with NNexusClient(*server.address) as client:
                assert client.describe()["objects"] == 1
                _, links = client.link_entry(
                    "every planar graph is sparse", classes=["05C10"]
                )
            assert [link["target"] for link in links] == ["7"]
        finally:
            self._stop(server, thread, exits)
