#!/usr/bin/env python3
"""Time optimal_ce on a ladder of complete-graph auctions.

Each rung (n, m, r) is the complete graph on n items, m agents with
integer weights drawn uniformly from [-3, 3], and the uniform supply r of
every item. Every rung is solved for each seed in both modes, quadratic
and Walrasian, and each run prints one JSON line: rung, mode, seed,
status, revenue and seconds.

    PYTHONPATH=src python scripts/ladder.py
    PYTHONPATH=src python scripts/ladder.py --rung 4,4,2 --seeds 1
"""
import argparse
import json
import random
import time

from gpauction.model import ValueGraph
from gpauction.pricing import optimal_ce
from gpauction.randgen import random_valuation

RUNGS = ((4, 4, 2), (5, 5, 2), (6, 6, 2))


def rung(text):
    n, m, r = (int(x) for x in text.split(","))
    return n, m, r


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rung", type=rung, action="append",
                    help="n,m,r; repeat for several (default: all of %s)" % (RUNGS,))
    ap.add_argument("--seeds", type=int, default=3, help="seeds 1..SEEDS")
    args = ap.parse_args()
    for n, m, r in args.rung or RUNGS:
        g = ValueGraph.complete(n)
        for seed in range(1, args.seeds + 1):
            rng = random.Random(seed)
            vs = [random_valuation(rng, g, -3, 3) for _ in range(m)]
            for mode in ("quadratic", "walrasian"):
                start = time.perf_counter()
                res = optimal_ce(vs, (r,) * n, walrasian=mode == "walrasian")
                seconds = time.perf_counter() - start
                print(json.dumps({
                    "rung": [n, m, r], "mode": mode, "seed": seed,
                    "status": res.status,
                    "revenue": None if res.revenue is None else str(res.revenue),
                    "seconds": round(seconds, 4),
                }), flush=True)


if __name__ == "__main__":
    main()
