"""Smoke tests for the experiment scripts: each runs end to end in a fresh
interpreter, so a library name they import that no longer exists fails
here rather than at the next manual run."""
import json
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
    if argv[0] == "scripts/ladder.py":
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        seller = [line for line in lines if line["mode"] == "seller"]
        assert [line["price"] for line in seller] == ["random", "zero"]
        assert all(line["points"] > 0 for line in seller)
        check = [line for line in lines if line["mode"] == "seller-check"]
        assert [line["price"] for line in check] == ["random", "zero"]
        # At the zero price every split ties, so the sold split is optimal.
        assert check[1]["optimal"] and check[1]["revenue"] == "0"
        best = {line["price"]: line["revenue"] for line in seller}
        assert [line["revenue"] for line in check] == [best["random"], best["zero"]]


def test_bench_pairs_the_repo_with_itself(tmp_path):
    argv = ["scripts/bench.py", "--parent", str(ROOT), "--change", str(ROOT),
            "--workload", "verify-pe", "--pairs", "1", "--seconds", "0",
            "--label", "smoke", "--out-dir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=ROOT, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["src_sha256"]["parent"] == doc["src_sha256"]["change"]
    bench = doc["workloads"]["verify-pe"]
    assert [(r["side"], r["first"]) for r in bench["runs"]] == [("parent", True), ("change", False)]
    assert all(r["attempted"] > 0 and r["failed"] == 0 for r in bench["runs"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench["summary"]) == {m["name"] for m in spec["end_to_end"]}
    assert bench["summary"]["certified_ratio"]["ratio"] == 1
    assert all("linprog.lp_solve.calls" in bench["layers"][side] for side in ("parent", "change"))
