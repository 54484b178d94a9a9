"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import labmech

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    src = str(Path(labmech.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
