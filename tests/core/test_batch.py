"""Tests for offline batch linking."""

import logging
import re

import pytest

from repro.core import batch
from repro.core.batch import BatchLinker
from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc


@pytest.fixture()
def linker() -> NNexus:
    instance = NNexus(scheme=build_small_msc())
    instance.add_objects(sample_corpus())
    return instance


class TestRun:
    def test_links_whole_corpus(self, linker) -> None:
        report = BatchLinker(linker, fmt="html").run()
        assert report.entries == 30
        assert report.links > 50
        assert set(report.rendered) == set(linker.object_ids())
        assert report.links_per_entry > 1.0
        assert report.seconds > 0

    def test_selection(self, linker) -> None:
        report = BatchLinker(linker, fmt=None).run(object_ids=[1, 5, 11])
        assert report.entries == 3
        assert report.rendered == {}
        assert set(report.link_counts) == {1, 5, 11}

    def test_progress_callback(self, linker) -> None:
        seen: list[tuple[int, int]] = []
        BatchLinker(linker, fmt=None).run(
            object_ids=[1, 2, 3], progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_output_files(self, linker, tmp_path) -> None:
        out = tmp_path / "rendered"
        report = BatchLinker(linker, fmt="markdown").run(
            object_ids=[1, 2], output_dir=out
        )
        assert report.files_written == 2
        assert (out / "object-1.md").exists()
        assert "](" in (out / "object-1.md").read_text()

    def test_invalid_parameters(self, linker) -> None:
        with pytest.raises(ValueError):
            BatchLinker(linker, fmt="docx")
        with pytest.raises(ValueError):
            BatchLinker(linker, workers=0)
        with pytest.raises(ValueError):
            BatchLinker(linker, mode="fork")
        with pytest.raises(ValueError, match='mode="process"'):
            BatchLinker(linker, mode="thread", workers=2)

    def test_summary_keys(self, linker) -> None:
        summary = BatchLinker(linker, fmt=None).run(object_ids=[1]).summary()
        assert {"entries", "links", "seconds", "links_per_entry"} <= set(summary)
        assert {"files_written", "workers"} <= set(summary)


class TestProcessMode:
    def test_matches_thread_mode_byte_for_byte(self, linker) -> None:
        threaded = BatchLinker(linker, fmt="html", mode="thread").run()
        processed = BatchLinker(
            linker, fmt="html", mode="process", workers=2
        ).run()
        assert processed.rendered == threaded.rendered
        assert processed.links == threaded.links
        assert processed.mode == "process"
        assert processed.workers == 2

    def test_reports_worker_seconds(self, linker) -> None:
        report = BatchLinker(linker, fmt=None, mode="process", workers=2).run()
        assert report.worker_seconds
        assert all(seconds >= 0.0 for seconds in report.worker_seconds.values())

    def test_writes_output_files(self, linker, tmp_path) -> None:
        out = tmp_path / "rendered"
        report = BatchLinker(linker, fmt="markdown", mode="process").run(
            object_ids=[1, 2], output_dir=out
        )
        assert report.files_written == 2
        assert (out / "object-2.md").exists()

    def test_worker_logs_to_stderr_in_console_format(
        self, linker, capfd, monkeypatch
    ) -> None:
        # A spawned worker starts with no handler on the nnexus logger;
        # its initializer installs the console one on stderr.
        monkeypatch.setattr(batch, "_WORKER_LINKER", None)
        monkeypatch.setattr(batch, "_WORKER_FMT", None)
        batch._process_worker_init(linker, None)
        logging.getLogger("nnexus.trace").warning(
            "slow_request", extra={"attrs": {"root": "batch.entry"}}
        )
        assert re.fullmatch(
            r"\d\d:\d\d:\d\d\.\d{3} WARNING nnexus\.trace slow_request root=batch\.entry\n",
            capfd.readouterr().err,
        )

    def test_empty_selection(self, linker) -> None:
        report = BatchLinker(linker, fmt=None, mode="process").run(object_ids=[])
        assert report.entries == 0
        assert report.links == 0


class TestRetainRenderings:
    def test_disabled_keeps_files_as_source_of_truth(self, linker, tmp_path) -> None:
        out = tmp_path / "rendered"
        report = BatchLinker(linker, fmt="html", retain_renderings=False).run(
            output_dir=out
        )
        assert report.rendered == {}
        assert report.files_written == 30
        assert report.links > 50
        assert len(list(out.glob("object-*.html"))) == 30

    def test_disabled_without_output_dir_still_counts_links(self, linker) -> None:
        report = BatchLinker(linker, fmt="html", retain_renderings=False).run()
        assert report.rendered == {}
        assert report.files_written == 0
        assert set(report.link_counts) == set(linker.object_ids())
