"""Every script under ``examples/`` runs to completion.

Each one runs in its own interpreter, from a scratch working directory,
with only ``src`` on the import path, as a reader would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name: str, tmp_path: Path) -> None:
    args = [sys.executable, str(ROOT / "examples" / name)]
    if name == "build_site.py":
        args.append(str(tmp_path / "site"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
