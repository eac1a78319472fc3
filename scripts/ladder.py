#!/usr/bin/env python3
"""Time optimal_ce and seller_demand on a ladder of complete-graph auctions.

Each rung (n, m, r) is the complete graph on n items, m agents with
integer weights drawn uniformly from [-3, 3], and the uniform supply r of
every item. Every rung is solved for each seed in both modes, quadratic
and Walrasian, and each run prints one JSON line: rung, mode, seed,
status, revenue, seconds and "matched", the number of splits matched to
the agents (calls of demand._assign, counted by wrapping it here). In
quadratic mode only the splits of the points that optimal_ce folds are
matched: it folds a point only when the point's welfare bound is not
below the best revenue found, so "matched" counts just those. Then
the seller's revenue search runs at a price with integer entries drawn
from [-3, 3] and at the zero price, where every point ties; each prints
one line with mode "seller": rung, seed, price, the number of
revenue-maximizing points, their revenue and seconds. After each, the
seller side of a PE check runs at the same price on a seeded random
split of the supply (each item to r distinct agents): seller_demand
with above set to the split's revenue, which looks only for a point
paying strictly more. It prints one line with mode "seller-check": rung,
seed, price, whether the split is revenue-maximizing (no point pays
more), the best revenue (the split's own when it is) and seconds.

    PYTHONPATH=src python scripts/ladder.py
    PYTHONPATH=src python scripts/ladder.py --rung 4,4,2 --seeds 1
"""
import argparse
import json
import random
import time

from gpauction import demand
from gpauction.demand import seller_demand
from gpauction.model import PriceVector, ValueGraph, aggregate
from gpauction.pricing import optimal_ce
from gpauction.randgen import random_valuation

RUNGS = ((4, 4, 2), (5, 5, 2), (6, 6, 2))


def rung(text):
    n, m, r = (int(x) for x in text.split(","))
    return n, m, r


def timed(f, *args, **kwargs):
    """f's result and its seconds. The clock stops before the caller's
    assignment frees the result it replaces, which can be every point of
    a zero-price seller search."""
    start = time.perf_counter()
    out = f(*args, **kwargs)
    return out, time.perf_counter() - start


def count_matches() -> list:
    """Wrap demand._assign so that each call appends to the list
    returned; its length is the number of splits matched so far."""
    calls, assign = [], demand._assign

    def counted(*args):
        calls.append(None)
        return assign(*args)

    demand._assign = counted
    return calls


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rung", type=rung, action="append",
                    help="n,m,r; repeat for several (default: all of %s)" % (RUNGS,))
    ap.add_argument("--seeds", type=int, default=3, help="seeds 1..SEEDS")
    args = ap.parse_args()
    matched = count_matches()
    for n, m, r in args.rung or RUNGS:
        g = ValueGraph.complete(n)
        for seed in range(1, args.seeds + 1):
            rng = random.Random(seed)
            vs = [random_valuation(rng, g, -3, 3) for _ in range(m)]
            for mode in ("quadratic", "walrasian"):
                matched.clear()
                res, seconds = timed(optimal_ce, vs, (r,) * n, walrasian=mode == "walrasian")
                print(json.dumps({
                    "rung": [n, m, r], "mode": mode, "seed": seed,
                    "status": res.status,
                    "revenue": None if res.revenue is None else str(res.revenue),
                    "seconds": round(seconds, 4),
                    "matched": len(matched),
                }), flush=True)
            prices = {
                "random": PriceVector(g, tuple(rng.randint(-3, 3) for _ in range(g.d))),
                "zero": PriceVector.zero(g),
            }
            sold = [set() for _ in range(m)]
            for i in range(n):
                for b in rng.sample(range(m), r):
                    sold[b].add(i)
            sold = tuple(map(frozenset, sold))
            for name, p in prices.items():
                points, seconds = timed(seller_demand, p, (r,) * n, m)
                print(json.dumps({
                    "rung": [n, m, r], "mode": "seller", "seed": seed, "price": name,
                    "points": len(points), "revenue": str(p.dot(next(iter(points)))),
                    "seconds": round(seconds, 4),
                }), flush=True)
                paid = p.dot(aggregate(g, sold))
                better, seconds = timed(seller_demand, p, (r,) * n, m, above=paid)
                print(json.dumps({
                    "rung": [n, m, r], "mode": "seller-check", "seed": seed, "price": name,
                    "optimal": not better,
                    "revenue": str(p.dot(next(iter(better))) if better else paid),
                    "seconds": round(seconds, 4),
                }), flush=True)


if __name__ == "__main__":
    main()
