"""Smoke tests for the experiment scripts: each runs end to end in a fresh
interpreter, so a library name they import that no longer exists fails
here rather than at the next manual run."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/solve_corpus.py"],
        ["scripts/run_suites.py", "--count", "2"],
        ["scripts/ladder.py", "--rung", "4,4,2", "--seeds", "1"],
    ],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
