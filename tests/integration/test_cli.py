"""Tests for the top-level CLI (python -m repro ...)."""

import json

import pytest

from repro.__main__ import main
from repro.corpus.loader import save_corpus
from repro.corpus.planetmath_sample import sample_corpus


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.json"
    save_corpus(sample_corpus(), path)
    return path


class TestLinkCommand:
    def test_links_file(self, tmp_path, corpus_file, capsys) -> None:
        note = tmp_path / "note.txt"
        note.write_text("Every planar graph has connected components.")
        code = main([
            "link", str(note), "--corpus", str(corpus_file),
            "--classes", "05C10", "--format", "annotations",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "planar graph[->2]" in out

    def test_default_sample_corpus(self, tmp_path, capsys) -> None:
        note = tmp_path / "note.txt"
        note.write_text("a tree is bipartite")
        assert main(["link", str(note), "--classes", "05C05"]) == 0
        assert "tree" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_summary_json(self, corpus_file, tmp_path, capsys) -> None:
        out_dir = tmp_path / "rendered"
        code = main([
            "batch", "--corpus", str(corpus_file), "--format", "markdown",
            "--out", str(out_dir),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["entries"] == 30
        assert (out_dir / "object-1.md").exists()

    def test_batch_workers_run_the_process_pool(
        self, corpus_file, tmp_path, capsys
    ) -> None:
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        argv = ["batch", "--corpus", str(corpus_file), "--format", "markdown"]
        assert main([*argv, "--out", str(serial_dir)]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main([*argv, "--out", str(pooled_dir), "--workers", "2"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert pooled["workers"] == 2.0
        assert pooled["entries"] == serial["entries"] == 30
        assert pooled["links"] == serial["links"]
        for path in serial_dir.iterdir():
            assert (pooled_dir / path.name).read_text() == path.read_text()


MINI_DUMP = """<mediawiki>
  <page><title>Planar graph</title>
    <revision><text>A '''planar graph''' embeds in the [[plane]].
[[Category:Graph theory]]</text></revision></page>
  <page><title>Plane</title>
    <revision><text>Flat space. [[Category:Geometry]]</text></revision></page>
  <page><title>Planar graphs</title>
    <revision><text>#REDIRECT [[Planar graph]]</text></revision></page>
</mediawiki>
"""


class TestImportWiki:
    def test_import(self, tmp_path, capsys) -> None:
        dump = tmp_path / "dump.xml"
        dump.write_text(MINI_DUMP)
        category_map = tmp_path / "cats.json"
        category_map.write_text(json.dumps({"Graph theory": "05C", "Geometry": "51M"}))
        out = tmp_path / "wiki.json"
        code = main([
            "import-wiki", str(dump), "--out", str(out),
            "--category-map", str(category_map),
        ])
        assert code == 0
        from repro.corpus.loader import load_corpus

        objects = load_corpus(out)
        assert len(objects) == 2  # the redirect became a synonym
        by_title = {obj.title: obj for obj in objects}
        assert by_title["Planar graph"].synonyms == ["Planar graphs"]
        assert by_title["Plane"].classes == ["51M"]


class TestSiteCommand:
    def test_site_built(self, corpus_file, tmp_path, capsys) -> None:
        out = tmp_path / "site"
        code = main(["site", "--corpus", str(corpus_file), "--out", str(out),
                     "--title", "CLI Site"])
        assert code == 0
        assert (out / "index.html").exists()
        assert "CLI Site" in (out / "index.html").read_text()
        assert "30 entry pages" in capsys.readouterr().out


class TestKeywordsCommand:
    def test_keywords(self, tmp_path, capsys) -> None:
        note = tmp_path / "note.txt"
        note.write_text("A Markov chain has a transition matrix.")
        assert main(["keywords", str(note), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "markov chain" in out or "transition matrix" in out


class TestSuggestPoliciesCommand:
    def test_suggest_on_sample(self, capsys) -> None:
        assert main(["suggest-policies", "--min-usages", "3"]) == 0
        capsys.readouterr()  # output shape is free-form; exit code matters


class TestEvalForwarding:
    def test_eval_subcommand(self, capsys) -> None:
        assert main(["eval", "table1", "--entries", "120"]) == 0
        assert "Table 1" in capsys.readouterr().out
