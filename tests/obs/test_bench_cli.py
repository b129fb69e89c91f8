"""The CLI front both bench scripts share (``repro.obs.bench.bench_main``)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.bench import bench_main, bench_parser

_ROOT = Path(__file__).resolve().parents[2]


def _script(name: str):
    path = _ROOT / "benchmarks" / f"bench_{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}_script", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checked_in(name: str) -> dict:
    return json.loads((_ROOT / f"BENCH_{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    ("name", "section", "field"),
    [("linking", "corpus", "tokens"), ("serving", "protocol_overhead", "ping_p50_ms")],
)
def test_validate_names_the_missing_field(tmp_path, capsys, name, section, field) -> None:
    main = _script(name).main
    assert main(["--validate", str(_ROOT / f"BENCH_{name}.json")]) == 0
    assert "valid (schema_version" in capsys.readouterr().out

    report = _checked_in(name)
    del report[section][field]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(report), encoding="utf-8")
    assert main(["--validate", str(broken)]) == 1
    assert f"schema error: {section}.{field} missing" in capsys.readouterr().err


def _args(*argv: str):
    return bench_parser("linking", smoke_help="", gate_help="").parse_args(list(argv))


def test_gate_reads_its_baseline_before_out_overwrites_it(tmp_path, capsys) -> None:
    path = tmp_path / "BENCH_linking.json"
    baseline = _checked_in("linking")
    path.write_text(json.dumps(baseline), encoding="utf-8")
    regressed = copy.deepcopy(baseline)
    regressed["stages"]["steer"]["sum_sec"] = 0.9 * regressed["throughput"]["cold_elapsed_sec"]

    code = bench_main(
        "linking", _args("--out", str(path), "--gate", str(path)),
        lambda: regressed, lambda report: "summary",
    )
    assert code == 1
    assert json.loads(path.read_text(encoding="utf-8")) == regressed
    captured = capsys.readouterr()
    assert f"wrote {path}: summary" in captured.out
    assert "perf gate: steer stage regressed" in captured.err


def test_invalid_report_is_never_written(tmp_path, capsys) -> None:
    path = tmp_path / "out.json"
    report = _checked_in("linking")
    del report["corpus"]["tokens"]
    code = bench_main("linking", _args("--out", str(path)), lambda: report, str)
    assert code == 1
    assert not path.exists()
    assert "internal schema error: corpus.tokens missing" in capsys.readouterr().err


def test_out_dash_prints_the_report(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    report = _checked_in("linking")
    code = bench_main(
        "linking", _args("--out", "-", "--gate", str(_ROOT / "BENCH_linking.json")),
        lambda: report, str,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out[: out.rindex("}") + 1]) == report
    assert out.rstrip().splitlines()[-1].startswith("perf gate: pass (steer share ")
    assert list(tmp_path.iterdir()) == []
