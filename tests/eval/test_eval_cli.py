"""The eval CLI: every experiment target runs end to end (tiny corpus)."""

import re

import pytest

from repro.eval import experiments
from repro.eval.__main__ import main


@pytest.mark.parametrize(
    ("name", "marker"),
    [
        ("table1", "Table 1"),
        ("table2", "Table 2"),
        ("table3", "Table 3"),
        ("fig8", "Fig. 8"),
        ("mislink", "Mislink/overlink"),
        ("baselines", "Baseline comparison"),
        ("ablation-weighting", "weight base"),
        ("ablation-invalidation", "invalidation index"),
        ("ablation-conceptmap", "concept map"),
        ("auto-policies", "policy suggestion"),
        ("connectivity", "Connectivity study"),
        ("growth", "Growth study"),
        ("error-breakdown", "Error breakdown"),
    ],
)
def test_every_experiment_runs(name: str, marker: str, capsys) -> None:
    assert main([name, "--entries", "150"]) == 0
    assert marker in capsys.readouterr().out


def test_custom_sizes_for_table3(capsys) -> None:
    assert main(["table3", "--entries", "150", "--sizes", "40,80"]) == 0
    out = capsys.readouterr().out
    assert "| 40" in out
    assert "| 80" in out


def test_corpus_banner_printed(capsys) -> None:
    main(["table1", "--entries", "150"])
    out = capsys.readouterr().out
    assert "150 entries" in out


def test_all_prints_table3_and_fig8_from_one_sweep(capsys, monkeypatch) -> None:
    calls = []
    real = experiments.run_table3

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sizes"))
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_table3", counted)
    assert main(["all", "--entries", "150", "--sizes", "50,100,150"]) == 0
    assert calls == [(50, 100, 150)]

    out = capsys.readouterr().out
    table3 = re.findall(r"^\| (\d+) +\|[^|]+\|[^|]+\| ([\d.]+ms) +\|", out, re.MULTILINE)
    fig8 = re.findall(r"^ +(\d+) \| #+ ([\d.]+ms)$", out, re.MULTILINE)
    assert [size for size, __ in table3] == ["50", "100", "150"]
    assert fig8 == table3
