"""Run an NNexus server from the command line.

::

    python -m repro.server --port 7070 --sample     # serve the sample corpus
    python -m repro.server --port 7070 --corpus corpus.json

The server runs hardened by default: bounded admission (load past
``--max-in-flight`` is shed with a retryable ``overloaded`` error),
idle/request socket deadlines, and a graceful drain on SIGINT.  With
``--http-port`` the HTTP gateway shares the socket server's
readers-writer lock and flips ``/ready`` to 503 while draining.

Observability switches: ``--metrics`` records per-stage timings and
server counters; ``--trace`` records request-scoped span trees
(retrievable via ``getTrace``/``getRecentTraces`` and
``GET /debug/traces``); ``--trace-jsonl PATH`` streams every finished
span to a JSONL file; ``--slow-ms N`` flushes any request slower than
N milliseconds as a ``slow_request`` forensics log record;
``--profile`` runs the background sampling profiler (retrieve via
``getProfile`` or ``GET /debug/profile``); ``--memory-reconcile-sec``
arms the periodic deep reconcile of the per-component memory
estimates (always available on demand via ``getResourceStats`` with
``deep=1``).  All output goes through the structured logger
(``--log-level``, ``--log-json``).

``--data-dir DIR`` turns durability on: the server opens the sqlite
store in DIR, cold-starts from it (the stored objects are replayed
through the normal add path, which rebuilds the in-memory concept map,
and the stored renderings refill the render cache) and journals every
mutation to it.  Without ``--data-dir`` the corpus lives in memory only.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.errors import CorpusFormatError, StorageCorruptionError
from repro.core.linker import NNexus
from repro.corpus.loader import load_corpus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JsonlExporter, Tracer
from repro.ontology.msc import build_small_msc
from repro.persistence.sqlite_backend import _SYNC_LEVELS, SqliteBackend
from repro.server.server import NNexusServer


def _close_startup(gateway, exporter, storage, profiler=None) -> None:
    """Release everything a failed startup opened, tolerating None."""
    if gateway is not None:
        gateway.shutdown()
        gateway.server_close()
    if exporter is not None:
        exporter.close()
    if profiler is not None:
        profiler.stop()
    if storage is not None:
        storage.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7070)
    parser.add_argument("--corpus", type=str, default="",
                        help="path to a JSON corpus (see repro.corpus.loader)")
    parser.add_argument("--sample", action="store_true",
                        help="serve the built-in PlanetMath-style sample corpus")
    parser.add_argument("--http-port", type=int, default=0,
                        help="also expose the read-only HTTP/JSON gateway")
    parser.add_argument("--max-in-flight", type=int, default=64,
                        help="admission bound; excess requests are shed "
                             "with a retryable 'overloaded' error")
    parser.add_argument("--pipeline-workers", type=int, default=None,
                        metavar="N",
                        help="executor threads serving reqid-tagged (pipelined) "
                             "read requests across all connections; default "
                             "min(32, --max-in-flight)")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        help="seconds a started request may take per socket "
                             "read before the connection is closed")
    parser.add_argument("--idle-timeout", type=float, default=300.0,
                        help="seconds a quiet connection is kept open")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds to wait for in-flight requests on shutdown")
    parser.add_argument("--metrics", action="store_true",
                        help="record per-stage pipeline timings and server "
                             "counters (scrape via the HTTP gateway's /metrics "
                             "or the getMetrics wire method)")
    parser.add_argument("--trace", action="store_true",
                        help="record request-scoped trace spans (retrieve via "
                             "getTrace/getRecentTraces or GET /debug/traces)")
    parser.add_argument("--trace-jsonl", type=str, default="",
                        help="append every finished span to this JSONL file "
                             "(implies --trace)")
    parser.add_argument("--slow-ms", type=float, default=0.0,
                        help="flush requests slower than this many milliseconds "
                             "as slow_request forensics records (implies --trace)")
    parser.add_argument("--profile", action="store_true",
                        help="run the background sampling profiler (retrieve "
                             "via getProfile or GET /debug/profile)")
    parser.add_argument("--profile-interval-ms", type=float, default=5.0,
                        metavar="MS",
                        help="sampling interval for --profile")
    parser.add_argument("--memory-reconcile-sec", type=float, default=None,
                        metavar="SEC",
                        help="deep-reconcile the per-component memory "
                             "estimates every SEC seconds (default: only on "
                             "getResourceStats with deep=1)")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="structured log threshold (debug includes "
                             "per-request and HTTP access lines)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log records as JSON lines instead of the "
                             "human-readable console format")
    parser.add_argument("--data-dir", type=str, default="",
                        help="directory for durable corpus state (sqlite, WAL "
                             "mode); the server cold-starts from it and "
                             "journals every mutation.  Without it the corpus "
                             "lives in memory only")
    parser.add_argument("--sync", default="always",
                        choices=tuple(_SYNC_LEVELS),
                        help="sqlite synchronous level with --data-dir: FULL "
                             "('always'), NORMAL ('batch') or OFF ('off')")
    args = parser.parse_args(argv)

    if args.pipeline_workers is not None and args.pipeline_workers < 1:
        parser.error("--pipeline-workers must be >= 1")
    if args.profile_interval_ms <= 0:
        parser.error("--profile-interval-ms must be > 0")
    if args.memory_reconcile_sec is not None and args.memory_reconcile_sec <= 0:
        parser.error("--memory-reconcile-sec must be > 0")

    configure_logging(
        level=args.log_level, fmt="json" if args.log_json else "console"
    )
    log = get_logger("nnexus.server")

    metrics = MetricsRegistry() if args.metrics else None
    profiler = None
    if args.profile:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler(interval_sec=args.profile_interval_ms / 1000.0)
        profiler.start()
    tracing = args.trace or bool(args.trace_jsonl) or args.slow_ms > 0
    tracer = None
    exporter = None
    if tracing:
        tracer = Tracer(
            slow_threshold=args.slow_ms / 1000.0 if args.slow_ms > 0 else None,
            metrics=metrics,
        )
        if args.trace_jsonl:
            exporter = JsonlExporter(args.trace_jsonl)
            try:
                tracer.add_sink(exporter)
            except BaseException:
                exporter.close()
                if profiler is not None:
                    profiler.stop()
                raise
    storage = None
    if args.data_dir:
        try:
            storage = SqliteBackend(args.data_dir, sync=args.sync)
        except StorageCorruptionError as exc:
            # Unreadable persistent state: refuse to guess.  The operator
            # decides between restoring a backup and wiping the directory.
            log.error("server.storage_corrupt", path=exc.path, reason=exc.reason)
            if exporter is not None:
                exporter.close()
            if profiler is not None:
                profiler.stop()
            return 1
    # Everything between opening the storage and entering the serve
    # loop can raise (corpus load, port binding); close what we opened
    # on every such path or the WAL handle and trace file leak.
    gateway = None
    try:
        linker = NNexus(
            scheme=build_small_msc(),
            metrics=metrics,
            tracer=tracer,
            storage=storage,
            memory_reconcile_sec=args.memory_reconcile_sec,
        )
        if len(linker):
            # The store restored a corpus: don't double-seed on top of it.
            restore = linker.last_restore or {}
            log.info(
                "server.storage_restored",
                backend="sqlite",
                objects=restore.get("objects"),
                renderings=restore.get("renderings"),
                cold_start_s=round(restore.get("elapsed_sec", 0.0), 4),
            )
        elif args.corpus:
            linker.add_objects(load_corpus(args.corpus))
        elif args.sample:
            linker.add_objects(sample_corpus())
        server = NNexusServer(
            linker,
            host=args.host,
            port=args.port,
            max_in_flight=args.max_in_flight,
            request_timeout=args.request_timeout,
            idle_timeout=args.idle_timeout,
            pipeline_workers=args.pipeline_workers,
            profiler=profiler,
        )
        host, port = server.address
        log.info(
            "server.listening",
            host=host,
            port=port,
            objects=len(linker),
            concepts=linker.concept_count(),
        )
        if args.metrics:
            log.info("server.metrics_enabled", endpoints="getMetrics, http /metrics")
        if profiler is not None:
            log.info(
                "server.profiler_enabled",
                interval_ms=args.profile_interval_ms,
                endpoints="getProfile, http /debug/profile",
            )
        if tracing:
            log.info(
                "server.tracing_enabled",
                jsonl=args.trace_jsonl or None,
                slow_ms=args.slow_ms or None,
            )
        if args.http_port:
            from repro.server.http_gateway import serve_http

            gateway = serve_http(
                linker,
                host=args.host,
                port=args.http_port,
                max_in_flight=args.max_in_flight,
                rwlock=server.rwlock,
                profiler=profiler,
            )
            log.info(
                "server.gateway_listening",
                host=gateway.address[0],
                port=gateway.address[1],
            )
    except OSError as exc:
        # Typically an occupied port: a clean operator error, not a
        # traceback.
        log.error("server.startup_failed", error=str(exc))
        _close_startup(gateway, exporter, storage, profiler)
        return 1
    except CorpusFormatError as exc:
        log.error("server.corpus_invalid", path=args.corpus, error=str(exc))
        _close_startup(gateway, exporter, storage, profiler)
        return 1
    except BaseException:
        _close_startup(gateway, exporter, storage, profiler)
        raise
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("server.draining")
    finally:
        if gateway is not None:
            gateway.set_ready(False)
        drained = server.shutdown_gracefully(drain_timeout=args.drain_timeout)
        if gateway is not None:
            gateway.shutdown()
            gateway.server_close()
        if profiler is not None:
            profiler.stop()
        linker.accountant.stop()
        if exporter is not None:
            exporter.close()
        if storage is not None:
            linker.checkpoint_storage()
            storage.close()
        if not drained:
            log.warning("server.drain_timeout", timeout_s=args.drain_timeout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
