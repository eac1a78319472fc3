#!/usr/bin/env python3
"""Reproduce the built-in corpus results end to end.

Solves both triangle auctions (quadratic and linear pricing), checks the
pricing-equilibrium verdicts, and runs the two geometry counterexamples:
the house-graph faces whose Minkowski sum traps a point away from every
vertex sum, and the K4 point that no four bundles can assemble.
"""
import time

from gpauction.demand import verify_pe
from gpauction.instances import corpus_instance
from gpauction.polytope import enumerate_decompositions, minkowski_contains, vertex_sum_contains
from gpauction.pricing import FOUND, optimal_ce


def solve_auction(name):
    inst = corpus_instance(name)
    start = time.monotonic()
    res = optimal_ce(inst.valuations, inst.supply)
    elapsed = time.monotonic() - start
    print(f"{name}: optimal CE revenue {res.revenue} "
          f"({elapsed * 1000:.0f} ms), point {res.point.coords}")
    pe = verify_pe(inst.valuations, res.allocation, res.price, inst.supply)
    print(f"  seller optimum at this price: {pe.seller_best_revenue} "
          f"-> {'PE' if pe.ok else 'not a PE'}")
    lin = optimal_ce(inst.valuations, inst.supply, walrasian=True)
    if lin.status != FOUND:
        print("  no Walrasian equilibrium")
    else:
        print(f"  Walrasian price {tuple(map(str, lin.price.entries))}")


def geometry(name):
    inst = corpus_instance(name)
    faces, point = list(inst.faces), inst.point
    in_sum = minkowski_contains(faces, point)
    picked = vertex_sum_contains(faces, point)
    decomps = sum(1 for _ in enumerate_decompositions(point, inst.m))
    print(f"{name}: point {point.coords}")
    print(f"  in Minkowski sum of the {len(faces)} faces: {in_sum}; "
          f"vertex-sum witness: {picked}; "
          f"{decomps} decompositions into {inst.m} bundles")


if __name__ == "__main__":
    solve_auction("cutlery")
    solve_auction("cutlery-shifted")
    geometry("house")
    geometry("idp-k4")
