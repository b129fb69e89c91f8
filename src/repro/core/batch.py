"""Offline batch linking (Section 2.1).

Entries are linked "either at display time or during offline batch
processing"; this module is the batch path: link every entry of a
corpus (or a selection), render to a chosen format, optionally write
one file per entry, and report corpus-level statistics — with a
progress callback for long runs.

Two ways to run:

* ``mode="thread"`` (the default; one worker only) — entries are linked
  in the calling thread, in order, so ``batch.entry`` spans nest under
  ``batch.run`` through the tracer's context variable.  A one-worker
  process pool is slower than this: it pays for start-up and pickling.
* ``mode="process"`` — the linker (concept map, steering graph) is
  snapshotted **once per worker** via pickle and chunks of entry ids are
  fanned out to a process pool, so whole-corpus relinks use every core
  instead of fighting the GIL.  Each worker fills its own per-target
  memo.  Metrics recorders are process-local and do not travel with the
  snapshot; per-worker chunk timings are reported back to the parent
  and folded into its recorder.

Both render through :meth:`~repro.core.linker.NNexus.render_document`,
which times the ``render`` stage beside the linker's other stages.

Linking is GIL-bound pure Python, so there is no thread pool: two
threads ran at 0.93x of one.  The name ``"thread"`` stays for the
``perfbench`` harness, which passes it explicitly.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.linker import NNexus
from repro.core.render import renderer_for
from repro.obs.trace import NULL_SPAN

__all__ = ["BatchReport", "BatchLinker", "BATCH_MODES"]

#: Supported fan-out modes.
BATCH_MODES = ("thread", "process")

ProgressCallback = Callable[[int, int], None]


@dataclass
class BatchReport:
    """Outcome of one batch run.

    ``rendered`` retains every rendering only when the run was made with
    ``retain_renderings=True`` (the default); large-corpus jobs disable
    it for bounded memory, in which case ``files_written`` (and the
    files on disk) are the source of truth for produced output.
    ``worker_seconds`` maps a dense worker index to the total in-worker
    linking time it reported (process mode; empty for an in-process run).
    """

    entries: int = 0
    links: int = 0
    seconds: float = 0.0
    rendered: dict[int, str] = field(default_factory=dict)
    link_counts: dict[int, int] = field(default_factory=dict)
    files_written: int = 0
    mode: str = "thread"
    workers: int = 1
    worker_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def links_per_entry(self) -> float:
        return self.links / self.entries if self.entries else 0.0

    @property
    def seconds_per_link(self) -> float:
        return self.seconds / self.links if self.links else 0.0

    def summary(self) -> dict[str, float]:
        """Flat numeric summary for logs and JSON output."""
        return {
            "entries": float(self.entries),
            "links": float(self.links),
            "seconds": self.seconds,
            "links_per_entry": self.links_per_entry,
            "seconds_per_link": self.seconds_per_link,
            "files_written": float(self.files_written),
            "workers": float(self.workers),
        }


# ---------------------------------------------------------------------------
# Process-pool plumbing.  The linker snapshot is delivered through the
# pool's initializer so it is pickled ONCE per worker (not once per
# chunk); chunks then reference it through a module global.
# ---------------------------------------------------------------------------

_WORKER_LINKER: NNexus | None = None
_WORKER_FMT: str | None = None


def _process_worker_init(
    linker: NNexus,
    fmt: str | None,
    trace_jsonl: str | None = None,
    tracing: bool = False,
    slow_threshold: float | None = None,
) -> None:
    global _WORKER_LINKER, _WORKER_FMT
    _WORKER_LINKER = linker
    _WORKER_FMT = fmt
    # slow_request records go to stderr as in the parent; a spawned
    # worker inherits no handler.
    from repro.obs.logging import configure_logging

    configure_logging()
    if tracing or trace_jsonl:
        # The parent's tracer does not travel through pickle (its ring
        # and lock belong to the parent process); each worker gets its
        # own tracer and, when asked, streams its ring to a per-worker
        # JSONL file the parent can collect afterwards.
        from repro.obs.trace import JsonlExporter, Tracer

        tracer = Tracer(slow_threshold=slow_threshold)
        if trace_jsonl:
            base = Path(trace_jsonl)
            suffix = base.suffix or ".jsonl"
            path = base.with_name(f"{base.stem}-worker-{os.getpid()}{suffix}")
            tracer.add_sink(JsonlExporter(path))
        linker.tracer = tracer


def _process_worker_link(
    object_ids: Sequence[int],
) -> tuple[int, float, list[tuple[int, int, str | None]]]:
    """Link one chunk in the worker; returns (pid, elapsed, rows)."""
    assert _WORKER_LINKER is not None, "worker used before initialization"
    start = time.perf_counter()
    rows: list[tuple[int, int, str | None]] = []
    for object_id in object_ids:
        count, rendered = _link_entry(_WORKER_LINKER, object_id, _WORKER_FMT)
        rows.append((object_id, count, rendered))
    return os.getpid(), time.perf_counter() - start, rows


def _link_entry(linker: NNexus, object_id: int, fmt: str | None) -> tuple[int, str | None]:
    """Link one entry and render it through the linker's render stage.

    Returns its link count and rendering (``None`` when ``fmt`` is).
    With a tracer, the entry is one ``batch.entry`` span, and the
    linker's spans nest under it.
    """
    trc = linker.tracer
    with trc.span("batch.entry", object_id=object_id) if trc.enabled else NULL_SPAN:
        document = linker.link_object(object_id)
        rendered = linker.render_document(document, fmt) if fmt else None
    return document.link_count, rendered


class BatchLinker:
    """Link a whole corpus offline.

    Parameters
    ----------
    linker:
        The shared :class:`~repro.core.linker.NNexus`.
    fmt:
        Render format (``html``, ``markdown``, ``annotations``) or
        ``None`` to skip rendering (timing/statistics runs).
    workers:
        Worker count.  ``1`` links in the calling thread; more than one
        needs ``mode="process"``.
    mode:
        ``"process"`` runs a pool of ``workers`` processes, each with its
        own linker snapshot (a one-worker pool too).  ``"thread"`` (the
        default) is the in-process run and accepts only ``workers=1``.
        The parameter and both values stay only because the ``perfbench``
        batch-relink workload constructs
        ``BatchLinker(linker, fmt="html", workers=1, mode="thread")``.
    retain_renderings:
        Keep every rendering in :attr:`BatchReport.rendered`.  Disable
        for large corpora so memory stays bounded by one chunk;
        ``files_written`` then reports the output produced.
    trace_jsonl:
        Base path for per-worker span JSONL files in process mode
        (worker pid is appended: ``traces-worker-<pid>.jsonl``).  In
        process the linker's own tracer/sinks already see every span,
        so this is ignored.
    """

    def __init__(
        self,
        linker: NNexus,
        fmt: str | None = "html",
        workers: int = 1,
        mode: str = "thread",
        retain_renderings: bool = True,
        trace_jsonl: str | Path | None = None,
    ) -> None:
        if fmt is not None:
            renderer_for(fmt)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in BATCH_MODES:
            raise ValueError(f"unknown batch mode {mode!r} (expected one of {BATCH_MODES})")
        if mode == "thread" and workers > 1:
            raise ValueError(
                'workers > 1 needs mode="process": linking is GIL-bound, '
                "so there is no thread pool"
            )
        self._linker = linker
        self._fmt = fmt
        self._workers = workers
        self._mode = mode
        self._retain = retain_renderings
        self._trace_jsonl = str(trace_jsonl) if trace_jsonl is not None else None

    def run(
        self,
        object_ids: Iterable[int] | None = None,
        progress: ProgressCallback | None = None,
        output_dir: str | Path | None = None,
    ) -> BatchReport:
        """Link (and optionally render/write) the selected entries."""
        ids = list(object_ids) if object_ids is not None else self._linker.object_ids()
        report = BatchReport(mode=self._mode, workers=self._workers)
        directory: Path | None = None
        if output_dir is not None:
            directory = Path(output_dir)
            directory.mkdir(parents=True, exist_ok=True)

        trc = self._linker.tracer
        start = time.perf_counter()
        with (
            trc.span(
                "batch.run", mode=self._mode, workers=self._workers, entries=len(ids)
            )
            if trc.enabled
            else NULL_SPAN
        ):
            if self._mode == "process":
                self._run_processes(ids, report, progress, directory)
            else:
                self._run_in_process(ids, report, progress, directory)
        report.entries = len(ids)
        report.seconds = time.perf_counter() - start

        rec = self._linker.metrics
        if rec.enabled:
            rec.observe("nnexus_batch_run_seconds", report.seconds, mode=self._mode)
            rec.inc("nnexus_batch_entries_linked_total", report.entries)
            for worker_index, seconds in sorted(report.worker_seconds.items()):
                rec.observe(
                    "nnexus_batch_worker_seconds",
                    seconds,
                    mode=self._mode,
                    worker=str(worker_index),
                )
        return report

    # ------------------------------------------------------------------
    # In process (the calling thread, one entry at a time)
    # ------------------------------------------------------------------
    def _run_in_process(
        self,
        ids: list[int],
        report: BatchReport,
        progress: ProgressCallback | None,
        directory: Path | None,
    ) -> None:
        for completed, object_id in enumerate(ids, 1):
            # batch.run is the current span, so each batch.entry nests
            # under it.
            count, rendered = _link_entry(self._linker, object_id, self._fmt)
            self._record(report, object_id, count, rendered, directory)
            if progress is not None:
                progress(completed, len(ids))

    # ------------------------------------------------------------------
    # Process mode (snapshot per worker, chunked fan-out)
    # ------------------------------------------------------------------
    def _run_processes(
        self,
        ids: list[int],
        report: BatchReport,
        progress: ProgressCallback | None,
        directory: Path | None,
    ) -> None:
        if not ids:
            return
        # About four chunks per worker.
        chunk = max(1, len(ids) // (self._workers * 4))
        chunks = [ids[i : i + chunk] for i in range(0, len(ids), chunk)]
        completed = 0
        worker_index_of: dict[int, int] = {}
        trc = self._linker.tracer
        with ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=_process_worker_init,
            initargs=(
                self._linker,
                self._fmt,
                self._trace_jsonl,
                trc.enabled,
                getattr(trc, "slow_threshold", None),
            ),
        ) as pool:
            for pid, elapsed, rows in pool.map(_process_worker_link, chunks):
                index = worker_index_of.setdefault(pid, len(worker_index_of))
                report.worker_seconds[index] = (
                    report.worker_seconds.get(index, 0.0) + elapsed
                )
                for object_id, count, rendered in rows:
                    completed += 1
                    self._record(report, object_id, count, rendered, directory)
                    if progress is not None:
                        progress(completed, len(ids))

    def _record(
        self,
        report: BatchReport,
        object_id: int,
        count: int,
        rendered: str | None,
        directory: Path | None,
    ) -> None:
        report.links += count
        report.link_counts[object_id] = count
        if rendered is not None:
            if self._retain:
                report.rendered[object_id] = rendered
            if directory is not None:
                extension = {"html": "html", "markdown": "md", "annotations": "txt"}[
                    self._fmt or "html"
                ]
                path = directory / f"object-{object_id}.{extension}"
                path.write_text(rendered, encoding="utf-8")
                report.files_written += 1
