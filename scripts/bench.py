#!/usr/bin/env python3
"""Compare two source trees on the benchmark, in alternating pairs.

For each workload, pair k runs ``perfbench/run.py --workload W --seed
SEED+k --seconds S --trace 0`` once in the parent tree and once in the
change tree, each from its own root. The side that runs first switches
from pair to pair, so a drift of host speed over a session falls on both
sides alike. The result goes to ``BENCH_<label>.json``:

- every run: pair, seed, side, whether it ran first, the benchmark's
  commit field, ``attempted``, ``failed`` and its end-to-end metrics;
- per workload and metric: each side's median and quartiles, the
  change/parent ratio of the medians, the pairs the change won
  (strictly better, in the direction ``BENCHMARK.json`` gives), and the
  verdicts ``gain`` and ``regressed`` (see ``summarize``);
- per workload, under ``layers.parent`` and ``layers.change``, the
  per-layer metrics of one ``--trace 1`` run per side at the first pair's
  seed, run after the pairs, so a change in time can be read in counts;
  under ``count_diffs``, each per-layer metric of unit ``count`` whose
  two values differ by more than 1e-9 relative, with both values (see
  ``count_diffs``), so an empty map reads "every count equals the
  parent's";
- the Python version, ``os.cpu_count()``, a digest of each tree's
  ``src/``, so a file can be matched to the program it measured, and the
  line count of each tree's ``src/gpauction/*.py``.

    python scripts/bench.py --parent ../parent --change . --label lp-pivot \\
        --workload point-pricing --pairs 10 --seconds 25 --seed 1
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10  # the fewest pairs on which a gain or a regression is judged


def metric_rules() -> dict:
    """Each end-to-end metric's direction and regression bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def count_metrics() -> list:
    """The names of the per-layer metrics of unit count."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]


def count_diffs(parent: dict, change: dict, names: list) -> dict:
    """{name: {"parent": p, "change": c}} for each of the names whose two
    values differ by more than 1e-9 of the larger one, or that one side
    lacks. The traced counts are sums of floats, so the same 180 calls
    can read 180.00000000000003 on one side and 180.0 on the other."""
    out = {}
    for name in names:
        p, c = parent.get(name), change.get(name)
        if p is None or c is None:
            same = p is c
        else:
            same = abs(p - c) <= 1e-9 * max(abs(p), abs(c))
        if not same:
            out[name] = {"parent": p, "change": c}
    return out


def src_digest(tree: Path) -> str:
    """sha256 over the relative paths and bytes of the tree's src/*.py."""
    h = hashlib.sha256()
    src = tree / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def src_lines(tree: Path) -> int:
    """The number of lines of the tree's src/gpauction/*.py."""
    paths = (tree / "src" / "gpauction").glob("*.py")
    return sum(len(path.read_bytes().splitlines()) for path in paths)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in ``tree``; its env and result lines. A traced
    run's metrics are the per-layer ones."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench: {' '.join(cmd)} in {tree} exited {proc.returncode}\n{proc.stderr}")
    env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
    return {
        "commit": env["commit"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list, rules: dict) -> dict:
    """Medians, quartiles, ratio, wins and two verdicts of each metric
    over the pairs. A verdict needs at least ``MIN_PAIRS`` pairs; with
    fewer, neither is set.

    - ``gain``: the change won at least nine tenths of the pairs, and its
      median is better than the parent's by more than the parent's
      interquartile range;
    - ``regressed``: the change's median is worse than the parent's by
      more than the metric's bound, as a fraction of the parent's median.
    """
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    judged = len(pairs) >= MIN_PAIRS
    out = {}
    for name, (better, bound) in rules.items():
        parent = [side[k, "parent"][name] for k in pairs]
        change = [side[k, "change"][name] for k in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
        worse_by = cq[1] - pq[1] if better == "lower" else pq[1] - cq[1]
        out[name] = {
            "parent_median": pq[1],
            "parent_quartiles": [pq[0], pq[2]],
            "change_median": cq[1],
            "change_quartiles": [cq[0], cq[2]],
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "wins": wins,
            "pairs": len(pairs),
            "gain": judged and 10 * wins >= 9 * len(pairs) and -worse_by > pq[2] - pq[0],
            "regressed": judged and worse_by > bound * abs(pq[1]),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=1, help="pair k runs seed SEED+k")
    ap.add_argument("--label", required=True)
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    rules, counts = metric_rules(), count_metrics()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = {}
    for workload in args.workload:
        runs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, seed, args.seconds)
                runs.append({"pair": k, "seed": seed, "side": side,
                             "first": side == order[0], **run})
                print(f"{workload} pair {k} {side}: p50 "
                      f"{run['metrics']['latency_p50_s']:.6f} s, failed {run['failed']}",
                      file=sys.stderr, flush=True)
        layers = {side: run_once(tree, workload, args.seed, args.seconds, trace=1)["metrics"]
                  for side, tree in trees.items()}
        workloads[workload] = {
            "runs": runs, "summary": summarize(runs, rules), "layers": layers,
            "count_diffs": count_diffs(layers["parent"], layers["change"], counts),
        }

    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "src_sha256": {side: src_digest(tree) for side, tree in trees.items()},
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "workloads": workloads,
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
