"""Top-level command-line interface.

::

    python -m repro link notes.txt --corpus corpus.json --classes 60J10
    python -m repro batch --corpus corpus.json --out rendered/
    python -m repro import-wiki dump.xml --out corpus.json
    python -m repro keywords entry.txt
    python -m repro suggest-policies --corpus corpus.json
    python -m repro serve --port 7070 --corpus corpus.json
    python -m repro eval table2 --entries 2000

``serve`` and ``eval`` forward to :mod:`repro.server.__main__` and
:mod:`repro.eval.__main__`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.batch import BatchLinker
from repro.core.keywords import KeywordExtractor
from repro.core.linker import NNexus
from repro.core.render import RENDERERS
from repro.core.suggest import PolicySuggester
from repro.corpus.loader import load_corpus, save_corpus
from repro.corpus.mediawiki import pages_to_corpus, parse_dump
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.logging import configure_logging
from repro.ontology.msc import build_small_msc


def _build_linker(corpus_path: str | None) -> NNexus:
    linker = NNexus(scheme=build_small_msc())
    if corpus_path:
        linker.add_objects(load_corpus(corpus_path))
    else:
        linker.add_objects(sample_corpus())
    return linker


def _cmd_link(args: argparse.Namespace) -> int:
    linker = _build_linker(args.corpus)
    if args.metrics:
        from repro.obs.metrics import MetricsRegistry

        linker.metrics = MetricsRegistry()
    text = Path(args.file).read_text(encoding="utf-8")
    classes = [c for c in (args.classes or "").split(",") if c]
    document = linker.link_text(text, source_classes=classes)
    print(linker.render_document(document, args.format))
    print(
        f"\n-- {document.link_count} links over {len(linker)} entries",
        file=sys.stderr,
    )
    if args.metrics:
        for series in linker.metrics_snapshot()["histograms"]:
            stage = series["labels"].get("stage", series["name"])
            print(
                f"-- stage {stage}: p50={series['p50'] * 1000:.3f}ms "
                f"p95={series['p95'] * 1000:.3f}ms "
                f"p99={series['p99'] * 1000:.3f}ms "
                f"(n={series['count']})",
                file=sys.stderr,
            )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    linker = _build_linker(args.corpus)
    exporter = None
    if args.trace or args.trace_jsonl or args.slow_ms > 0:
        from repro.obs.trace import JsonlExporter, Tracer

        tracer = Tracer(
            slow_threshold=args.slow_ms / 1000.0 if args.slow_ms > 0 else None
        )
        if args.trace_jsonl and args.workers == 1:
            # Process mode writes per-worker files instead (each worker
            # has its own tracer); see BatchLinker(trace_jsonl=...).
            exporter = JsonlExporter(args.trace_jsonl)
            tracer.add_sink(exporter)
        linker.tracer = tracer
    batch = BatchLinker(
        linker,
        fmt=args.format,
        workers=args.workers,
        mode="process" if args.workers > 1 else "thread",
        trace_jsonl=args.trace_jsonl or None,
    )

    def progress(done: int, total: int) -> None:
        if done % 500 == 0 or done == total:
            print(f"linked {done}/{total}", file=sys.stderr)

    report = batch.run(progress=progress, output_dir=args.out or None)
    if exporter is not None:
        exporter.close()
    print(json.dumps(report.summary(), indent=2))
    if args.out:
        print(f"wrote {report.files_written} files to {args.out}", file=sys.stderr)
    return 0


def _cmd_import_wiki(args: argparse.Namespace) -> int:
    xml_text = Path(args.dump).read_text(encoding="utf-8")
    category_map = {}
    if args.category_map:
        category_map = json.loads(Path(args.category_map).read_text(encoding="utf-8"))
    objects = pages_to_corpus(
        parse_dump(xml_text), category_map=category_map, first_id=args.first_id
    )
    save_corpus(objects, args.out)
    print(f"imported {len(objects)} pages -> {args.out}")
    return 0


def _cmd_keywords(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    extractor = KeywordExtractor()
    if args.corpus:
        extractor.observe_corpus(load_corpus(args.corpus))
    for candidate in extractor.extract(text, top_k=args.top):
        print(f"{candidate.score:8.2f}  {candidate.text}")
    return 0


def _cmd_site(args: argparse.Namespace) -> int:
    from repro.site.builder import SiteBuilder

    linker = _build_linker(args.corpus)
    report = SiteBuilder(linker, site_title=args.title).build(args.out)
    print(
        f"built {report.entry_pages} entry pages + {report.index_pages} index "
        f"pages ({report.links_rendered} links) in {report.output_dir}"
    )
    return 0


def _cmd_suggest_policies(args: argparse.Namespace) -> int:
    objects = load_corpus(args.corpus) if args.corpus else sample_corpus()
    suggester = PolicySuggester(
        min_usages=args.min_usages, max_home_share=args.max_home_share
    )
    suggestions = suggester.suggest(objects)
    if not suggestions:
        print("no overlink-prone labels detected")
        return 0
    for suggestion in suggestions:
        print(
            f"object {suggestion.object_id:6}  {suggestion.label!r:16} "
            f"used {suggestion.usage_count}x, {suggestion.home_share:.0%} in home "
            f"area {suggestion.home_area}"
        )
        for line in suggestion.policy_text.strip().splitlines():
            print(f"    {line}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        from repro.server.__main__ import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "eval":
        from repro.eval.__main__ import main as eval_main

        return eval_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m repro")
    commands = parser.add_subparsers(dest="command", required=True)

    link = commands.add_parser("link", help="link a text file against a corpus")
    link.add_argument("file")
    link.add_argument("--corpus", default="", help="JSON corpus (default: sample)")
    link.add_argument("--classes", default="", help="comma-separated source classes")
    link.add_argument("--format", choices=sorted(RENDERERS), default="markdown")
    link.add_argument("--metrics", action="store_true",
                      help="print per-stage pipeline timings to stderr")
    link.set_defaults(handler=_cmd_link)

    batch = commands.add_parser("batch", help="link every corpus entry offline")
    batch.add_argument("--corpus", default="")
    batch.add_argument("--format", choices=sorted(RENDERERS), default="html")
    batch.add_argument("--out", default="", help="directory for rendered files")
    batch.add_argument("--workers", type=int, default=1,
                       help="1 links in process; N > 1 runs a pool of N "
                            "processes, one linker snapshot each")
    batch.add_argument("--trace", action="store_true",
                       help="record per-document trace spans")
    batch.add_argument("--trace-jsonl", default="",
                       help="append finished spans to this JSONL file "
                            "(--workers N > 1 writes per-worker files)")
    batch.add_argument("--slow-ms", type=float, default=0.0,
                       help="log documents slower than this many milliseconds "
                            "as slow_request records (implies --trace)")
    batch.set_defaults(handler=_cmd_batch)

    import_wiki = commands.add_parser("import-wiki", help="import a MediaWiki dump")
    import_wiki.add_argument("dump")
    import_wiki.add_argument("--out", required=True)
    import_wiki.add_argument("--category-map", default="",
                             help="JSON file: category name -> class code")
    import_wiki.add_argument("--first-id", type=int, default=1)
    import_wiki.set_defaults(handler=_cmd_import_wiki)

    keywords = commands.add_parser("keywords", help="extract concept labels")
    keywords.add_argument("file")
    keywords.add_argument("--corpus", default="")
    keywords.add_argument("--top", type=int, default=10)
    keywords.set_defaults(handler=_cmd_keywords)

    site = commands.add_parser("site", help="build a static encyclopedia site")
    site.add_argument("--corpus", default="")
    site.add_argument("--out", required=True)
    site.add_argument("--title", default="Encyclopedia")
    site.set_defaults(handler=_cmd_site)

    suggest = commands.add_parser("suggest-policies",
                                  help="detect overlink culprits")
    suggest.add_argument("--corpus", default="")
    suggest.add_argument("--min-usages", type=int, default=10)
    suggest.add_argument("--max-home-share", type=float, default=0.5)
    suggest.set_defaults(handler=_cmd_suggest_policies)

    args = parser.parse_args(argv)
    configure_logging()  # slow_request records, INFO and up, to stderr
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
