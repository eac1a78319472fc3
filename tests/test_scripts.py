"""Smoke tests for the experiment scripts: each runs end to end in a fresh
interpreter, so a library name they import that no longer exists fails
here rather than at the next manual run."""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The paper's four corpus results; the timings go to stderr.
SOLVE_CORPUS_STDOUT = """\
cutlery: optimal CE revenue 1, point (1, 1, 1, 0, 0, 1)
  seller optimum at this price: 3 -> not a PE
  no Walrasian equilibrium
cutlery-shifted: optimal CE revenue 7, point (1, 1, 1, 1, 1, 1)
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
        assert proc.stdout == SOLVE_CORPUS_STDOUT
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


def test_suites_run_outside_the_checkout(tmp_path):
    """The scripts import the generators from tests/ through their own
    path, so they run from any working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suites.py"), "--count", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


# Runs scripts/run_suites.py with ce_price_at_point made to fail at
# every point, so the nested suite's verdict is a failure.
FAILING_SUITE = """
import runpy, sys
from gpauction import pricing
pricing.ce_price_at_point = lambda vs, point, **kw: pricing.CEResult(
    pricing.INFEASIBLE_AT_POINT, point=point)
sys.argv = ["run_suites.py", "--suite", "nested", "--count", "1"]
runpy.run_path("scripts/run_suites.py", run_name="__main__")
"""


def test_suite_failure_exits_under_python_O():
    """The suites' verdicts are explicit checks: a failed one exits
    non-zero and names the suite, under python -O too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAILING_SUITE],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.startswith("nested: instance 0: no CE price at the point"), proc.stderr


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
    paths = (ROOT / "src" / "gpauction").glob("*.py")
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    assert doc["src_lines"] == {"parent": lines, "change": lines}
    bench = doc["workloads"]["verify-pe"]
    assert [(r["side"], r["first"]) for r in bench["runs"]] == [("parent", True), ("change", False)]
    assert all(r["attempted"] > 0 and r["failed"] == 0 for r in bench["runs"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench["summary"]) == {m["name"] for m in spec["end_to_end"]}
    assert bench["summary"]["certified_ratio"]["ratio"] == 1
    # One pair is too few to judge a gain or a regression.
    assert not any(m["gain"] or m["regressed"] for m in bench["summary"].values())
    assert all("linprog.lp_solve.calls" in bench["layers"][side] for side in ("parent", "change"))
    assert bench["count_diffs"] == {}


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_count_diffs():
    """A count differs when its values are apart by more than 1e-9
    relative or one side lacks it; the float sums of one count do not."""
    bench = load_bench()
    names = bench.count_metrics()
    assert "linprog.lp_solve.calls" in names and "linprog.lp_solve.busy_s" not in names
    parent = {"a": 180.00000000000003, "b": 61.0, "c": 0.0, "d": 3.0, "e": 5.0}
    change = {"a": 180.0, "b": 62.0, "c": 0.0, "d": 3.0, "f": 1.0}
    assert bench.count_diffs(parent, change, ["a", "b", "c", "d", "e", "f", "g"]) == {
        "b": {"parent": 61.0, "change": 62.0},
        "e": {"parent": 5.0, "change": None},
        "f": {"parent": None, "change": 1.0},
    }


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
