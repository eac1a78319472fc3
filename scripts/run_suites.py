#!/usr/bin/env python3
"""Run the randomized equilibrium-existence suites at configurable size.

Each suite draws instances from one generator and checks the matching
guarantee: disjoint-clique and nested-chain points over complete graphs
always admit a CE price, covering clique bids stay inside their supports,
and demand sets are invariant under simultaneous weight/price shifts.
A failed check exits non-zero, naming the suite and the instance.
"""
import argparse
import random
import sys
import time
from pathlib import Path

from gpauction.demand import demand_set, verify_ce
from gpauction.model import PriceVector, shift
from gpauction.pricing import FOUND, ce_for_covering, ce_price_at_point

# The generators live beside the tests, in the checkout's tests package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.randgen import (  # noqa: E402
    arbitrary_supply_instance,
    covering_instance,
    disjoint_clique_instance,
    shift_triple,
)


def check(ok, suite, k, what):
    """Exit non-zero naming the suite and instance unless ok. An explicit
    check, not an assert, so the suites check under python -O too."""
    if not ok:
        raise SystemExit(f"{suite}: instance {k}: {what}")


def run_clique(rng, count):
    for k in range(count):
        vs, supply, point = disjoint_clique_instance(rng)
        res = ce_price_at_point(vs, point)
        check(res.status == FOUND and verify_ce(vs, res.allocation, res.price).ok,
              "clique", k, f"no verified CE price at the point ({res.status})")
    return count


def run_nested(rng, count):
    for k in range(count):
        vs, supply, point = arbitrary_supply_instance(rng)
        res = ce_price_at_point(vs, point)
        check(res.status == FOUND, "nested", k, f"no CE price at the point ({res.status})")
    return count


def run_covering(rng, count):
    for k in range(count):
        vs, supply, point = covering_instance(rng)
        res = ce_for_covering(vs, supply, point)
        check(res.status == FOUND, "covering", k, f"no CE price at the point ({res.status})")
        supports = [v.support for v in vs]
        check(all(S <= supports[b] for b, S in enumerate(res.allocation)),
              "covering", k, "a bundle leaves its agent's support")
    return count


def run_shift(rng, count):
    for k in range(count):
        v, p, c = shift_triple(rng)
        g = v.graph
        before = demand_set(v, PriceVector(g, p))
        after = demand_set(
            shift(v, c), PriceVector(g, tuple(a + b for a, b in zip(p, c)))
        )
        check(before.bundles == after.bundles, "shift", k,
              "the demand set moved under a joint weight and price shift")
    return count


SUITES = {
    "clique": run_clique,
    "nested": run_nested,
    "covering": run_covering,
    "shift": run_shift,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        rng = random.Random(args.seed)
        start = time.monotonic()
        done = SUITES[name](rng, args.count)
        print(f"{name:9s} {done}/{done} ok  {time.monotonic() - start:6.1f}s")


if __name__ == "__main__":
    main()
