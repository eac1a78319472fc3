"""Smoke tests for the experiment scripts: each runs end to end in a fresh
interpreter, so a library name they import that no longer exists fails
here rather than at the next manual run."""
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The paper's four corpus results, with the timings masked as (N ms).
SOLVE_CORPUS_STDOUT = """\
cutlery: optimal CE revenue 1 (N ms), point (1, 1, 1, 0, 0, 1)
  seller optimum at this price: 3 -> not a PE
  no Walrasian equilibrium
cutlery-shifted: optimal CE revenue 7 (N ms), point (1, 1, 1, 1, 1, 1)
  seller optimum at this price: 7 -> PE
  Walrasian price ('3', '1', '3', '0', '0', '0')
house: point (1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
  in Minkowski sum of the 4 faces: True; vertex-sum witness: None; \
7 decompositions into 4 bundles
idp-k4: point (2, 2, 2, 2, 1, 1, 1, 1, 1, 1)
  in Minkowski sum of the 4 faces: True; vertex-sum witness: None; \
0 decompositions into 4 bundles
"""


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
    if argv[0] == "scripts/solve_corpus.py":
        assert re.sub(r"\(\d+ ms\)", "(N ms)", proc.stdout) == SOLVE_CORPUS_STDOUT
    if argv[0] == "scripts/ladder.py":
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        solved = [line for line in lines if line["mode"] in ("quadratic", "walrasian")]
        assert [line["mode"] for line in solved] == ["quadratic", "walrasian"]
        assert all(type(line["matched"]) is int and line["matched"] > 0 for line in solved)
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
    """A copy of the tree's src/, perfbench/ and BENCHMARK.json stands in
    for both sides, so the traced runs write their span files there and
    not into the checkout."""
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    argv = ["scripts/bench.py", "--parent", str(tree), "--change", str(tree),
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
    # One pair is too few to judge a gain or a regression.
    assert not any(m["gain"] or m["regressed"] for m in bench["summary"].values())
    assert all("linprog.lp_solve.calls" in bench["layers"][side] for side in ("parent", "change"))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def paired(parent: list, change: list) -> list:
    return [
        {"pair": k, "side": side, "metrics": {"t": value}}
        for k, values in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), values)
    ]


@pytest.mark.parametrize(
    "better, change, gain, regressed",
    [
        ("lower", lambda k, p: p - 0.1, True, False),  # 10/10 wins, beyond the IQR
        ("lower", lambda k, p: p + 0.01 if k < 2 else p - 0.1, False, False),  # 8/10 wins
        ("lower", lambda k, p: p - 0.01, False, False),  # 10/10 wins, within the IQR
        ("lower", lambda k, p: p * 1.3, False, True),
        ("lower", lambda k, p: p * 1.1, False, False),  # worse, within the bound
        ("higher", lambda k, p: p * 0.7, False, True),
        ("higher", lambda k, p: p + 0.1, True, False),
    ],
)
def test_bench_verdicts(better, change, gain, regressed):
    """gain: 9 in 10 pairs won and the medians apart by more than the
    parent's interquartile range (0.045 here); regressed: the median worse
    by more than the bound, 20% of the parent's median."""
    bench = load_bench()
    parent = [1 + 0.01 * k for k in range(10)]
    runs = paired(parent, [change(k, p) for k, p in enumerate(parent)])
    got = bench.summarize(runs, {"t": (better, 0.2)})["t"]
    assert (got["gain"], got["regressed"]) == (gain, regressed)
    # Nine pairs are too few for either verdict.
    got = bench.summarize([r for r in runs if r["pair"] < 9], {"t": (better, 0.2)})["t"]
    assert not got["gain"] and not got["regressed"]
