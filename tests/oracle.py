"""Brute-force optimal-CE oracles, independent of the production search.

``oracle_optimal_revenue`` enumerates every ordered allocation (bundle
per agent) whose aggregate projects onto the supply, decides
CE-supportability of each by solving the full constraint system (one row
per agent and bundle), and maximizes the revenue objective over the
supportable ones. The full LP is built here rather than imported, so the
reference stays independent of the row-generation LP in
``gpauction.pricing`` that it checks. ``box_optimal_ce`` is the
point-by-point search over the whole candidate box, the reference for the
welfare-ordered search of ``optimal_ce``.
"""
import itertools
from fractions import Fraction
from typing import Optional, Sequence

from gpauction.demand import candidate_points
from gpauction.linprog import GE, OPTIMAL, LinearProgram, lp_solve
from gpauction.model import (
    Allocation,
    GPoint,
    Valuation,
    aggregate,
    char_vector,
    is_finite,
    project,
    value,
)
from gpauction.polytope import vertices_P
from gpauction.pricing import FOUND, NO_POINT_FOUND, CEResult, ce_price_at_point


def build_ce_lp(
    vs: Sequence[Valuation],
    alloc: Allocation,
    point: GPoint,
    walrasian: bool = False,
) -> LinearProgram:
    """The full revenue-maximization LP at a point: variables are the d
    price coordinates; for every agent and every bundle T of finite value,
    <p, a_T - a_b> >= v_b(T) - v_b(S_b). Walrasian mode pins the edge
    coordinates to zero."""
    g = point.graph
    verts = vertices_P(g)
    rows = []
    for b, S in enumerate(alloc):
        ab = char_vector(S, g)
        vb = value(vs[b], S)
        if not is_finite(vb):
            raise ValueError(f"agent {b} is assigned a bundle of value -inf")
        for q in verts:
            if q.coords == ab.coords:
                continue
            vq = value(vs[b], q.as_bundle())
            if not is_finite(vq):
                continue  # never competes: dominated by the empty bundle
            coeffs = tuple(Fraction(x - y) for x, y in zip(q.coords, ab.coords))
            rows.append((coeffs, GE, vq - vb))
    fixings = (
        {g.n + k: Fraction(0) for k in range(len(g.edges))} if walrasian else None
    )
    objective = tuple(Fraction(c) for c in point.coords)
    return LinearProgram(objective, tuple(rows), fixings=fixings)


def oracle_optimal_revenue(
    vs: Sequence[Valuation], supply: Sequence[int], walrasian: bool = False
) -> Optional:
    g = vs[0].graph
    m = len(vs)
    bundles = [
        frozenset(i for i in range(g.n) if mask >> i & 1)
        for mask in range(1 << g.n)
    ]
    best = None
    for alloc in itertools.product(bundles, repeat=m):
        agg = aggregate(g, alloc)
        if project(agg) != tuple(supply):
            continue
        res = lp_solve(build_ce_lp(vs, alloc, agg, walrasian))
        if res.status != OPTIMAL:
            continue
        if best is None or res.value > best:
            best = res.value
    return best


def box_optimal_ce(vs: Sequence[Valuation], supply: Sequence[int], walrasian: bool = False):
    """The exhaustive search optimal_ce replaced: price every point of the
    candidate box in lexicographic order, keep the first of maximal
    revenue."""
    best = None
    for a in candidate_points(vs[0].graph, supply):
        res = ce_price_at_point(vs, a, walrasian=walrasian)
        if res.status == FOUND and (best is None or res.revenue > best.revenue):
            best = res
    return best if best is not None else CEResult(NO_POINT_FOUND)
