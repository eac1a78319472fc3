"""Construction of competitive-equilibrium prices.

At a fixed aggregate point the CE prices form a polyhedron: for each
agent, the assigned bundle must beat every other bundle at the quadratic
price. Only welfare-maximal splits of the point can be supported (summing
the per-agent optimality conditions shows any supported split maximizes
total value, and conversely a price supporting one welfare-maximal split
supports them all), so one LP per point suffices: maximize revenue
<p, a> over that polyhedron. The LP is solved exactly in dual form,
with one row per price coordinate and one column per bundle constraint;
the exponentially many columns are generated lazily by an exact scan, the
prices are the row duals, and the optimum is verified against a full
demand-set scan. Bundle values and prices are read from the integer
tables of `model`, and the scan compares the integer utilities of
demand's one utility scan, the same one verify_ce runs.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import sub
from typing import Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .demand import _Fold, _common_graph, _utilities, max_welfare, verify_ce
from .linprog import InternalError, LinearProgram, OPTIMAL, UNBOUNDED, lp_solve
from .model import (
    Allocation,
    Bundle,
    GPoint,
    PriceVector,
    Valuation,
    bundle_mask,
    common_tables,
    dual_table,
    is_finite,
    shared_fraction,
)
from .polytope import _checked_supply, _vertex_table, bundle_table, enumerate_aggregates

FOUND = "found"
INFEASIBLE_AT_POINT = "infeasible-at-point"
NO_POINT_FOUND = "no-point-found"


class CoveringError(ValueError):
    """The valuations do not form covering clique bids."""


@dataclass(frozen=True, slots=True)
class CEResult:
    status: str
    point: Optional[GPoint] = None
    allocation: Optional[Allocation] = None
    price: Optional[PriceVector] = None
    revenue: Optional[Fraction] = None


def _price_at(
    vs: Sequence[Valuation],
    point: GPoint,
    alloc: Optional[Allocation],
    walrasian: bool,
    caps: Caps,
    best: Optional[CEResult] = None,
) -> CEResult:
    """Revenue-maximal CE price for the welfare-maximal split `alloc` of
    `point` (None when no split has finite welfare), by column generation
    on the dual of the revenue LP, certified against the full demand-set
    scan.

    Given best, a FOUND result at another point, the point is priced only
    while it can still beat best: a higher revenue, or an equal one at
    smaller coordinates. Each round's LP has a subset of the full LP's
    columns, so its optimum is at most the full one's, and minus it is L
    times an upper bound on the point's revenue (exact at the last
    round). Once that bound rules the point out, best itself is returned,
    with no further round and no verification; a FOUND result returned
    for a point that stayed in beats best.

    The revenue LP maximizes <p, a> over prices p such that, for every
    agent b and every bundle T of finite value,
    <p, a_T - a_{S_b}> >= v_b(T) - v_b(S_b). It is solved as its dual: one
    equality row per priced coordinate (d of them, n in Walrasian mode,
    where the edge prices are fixed at zero and drop out) and one
    nonnegative column u_{b,T} per constraint,

        max sum u_{b,T} (v_b(T) - v_b(S_b))
        s.t. sum u_{b,T} (a_T - a_{S_b}) = -a,   u >= 0,

    whose optimal value is minus the revenue and whose row duals are the
    prices. The columns (b, empty bundle) alone are feasible (u = 1 sums
    to -a), so the dual is never infeasible; an unbounded dual certifies
    that no price supports the split. The columns live in one store keyed
    by (agent, bundle bitmask), and each round's LP takes them in key
    order. The first round's new keys are the seeds (the empty bundle, the
    singletons and every agent's own bundle); every later round's are the
    bundles the exact scan finds strictly better than the agent's own at
    the round's price. The loop stops when the scan finds none.
    A bundle of value -inf adds no column: its right-hand side is -inf, so
    every price satisfies it (the agent's utility for it is -inf, below
    that of the empty bundle). With finite assigned values this is the
    exact LP for covering clique bids as well.
    The costs are the values scaled by L, the common scale of the
    valuation tables, so the row duals are L times the prices and the
    optimum is -L times the revenue; a positive scale of the costs leaves
    the pivot path unchanged. Each round's LP is built from ints, so it is
    taken unchecked, and it is read in integers: lp_solve's duals Y over
    D * L (D its scale) are the round's price, whose table the scan reads,
    and the final price and revenue are the only Fractions formed."""
    if alloc is None:
        return CEResult(INFEASIBLE_AT_POINT, point=point)
    g = point.graph
    n = g.n
    k = n if walrasian else g.d
    # The callers checked the caps, so the vertex table is read as it is;
    # each column stops at the k priced coordinates of the agent's own row.
    verts = _vertex_table(g)
    m = len(alloc)
    own = [bundle_mask(g, S) for S in alloc]
    base = [verts[S][:k] for S in own]
    L, vals = common_tables(vs)
    rhs = tuple(-c for c in point.coords[:k])

    cols: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
    seed = {0} | {1 << i for i in range(n)} | set(own)
    new = [(b, mask) for b in range(m) for mask in seed if mask != own[b]]
    while True:
        for b, mask in new:
            vb = vals[b]
            if vb[mask] is not None:
                cols[b, mask] = tuple(map(sub, verts[mask], base[b])), vb[mask] - vb[own[b]]
        columns = [cols[key] for key in sorted(cols)]
        costs = tuple(cost for _, cost in columns)
        res = lp_solve(LinearProgram._of_columns(costs, [col for col, _ in columns], rhs))
        if res.status == UNBOUNDED:
            return CEResult(INFEASIBLE_AT_POINT, point=point)
        if res.status != OPTIMAL:
            raise InternalError(
                f"dual pricing LP ended {res.status} although its seed columns are feasible"
            )
        # -cx / DL is at least the revenue. The point loses when that
        # bound is below best's revenue r / q, or equal to it at
        # coordinates after best's: compared as -cx * q against r * DL.
        DL = res.scale * L
        if best is not None and (-res.cx * best.revenue.denominator, best.point.coords) < (
            best.revenue.numerator * DL, point.coords
        ):
            return best
        prices = dual_table(g, res.Y, DL)
        new = []
        for b in range(m):
            _, u = _utilities((L, vals[b]), prices)
            own_u = u[own[b]]
            # A -inf value's utility is NEG_INF, never above own_u.
            new += [(b, mask) for mask, x in enumerate(u) if x > own_u and (b, mask) not in cols]
        if not new:
            break
    entries = tuple(shared_fraction(y, DL) for y in res.Y)
    entries += (shared_fraction(0),) * (g.d - k)
    revenue = shared_fraction(-res.cx, DL)
    price = PriceVector(g, entries, linear_only=walrasian)
    if not verify_ce(vs, alloc, price, caps).ok:
        raise InternalError("constructed price fails the exact CE verification")
    return CEResult(FOUND, point, alloc, price, revenue)


def ce_price_at_point(
    vs: Sequence[Valuation],
    point: GPoint,
    *,
    walrasian: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> CEResult:
    """Best competitive equilibrium selling exactly the aggregate `point`:
    maximal revenue over all CE-supporting prices, with a welfare-maximal
    allocation as witness. Requires finite weights; covering bids with
    -inf entries go through ce_for_covering."""
    g = _common_graph(vs, point.graph)
    caps.check_n(g.n)
    caps.check_m(len(vs))
    if not all(v.is_finite() for v in vs):
        raise ValueError(
            "weights must be finite here; use ce_for_covering for clique bids"
        )
    return _price_at(vs, point, max_welfare(vs, point, caps)[1], walrasian, caps)


def optimal_ce(
    vs: Sequence[Valuation],
    supply: Sequence[int],
    *,
    walrasian: bool = False,
    caps: Caps = DEFAULT_CAPS,
) -> CEResult:
    """Revenue-maximal CE over every decomposable point projecting onto
    the supply. Ties go to the lexicographically smallest point (and the
    witness allocation is the lexicographically least welfare-maximal
    one).

    The points come from one enumeration of the multisets of m bundles
    that sell the supply, and each point is priced at its best split,
    from max_welfare's fold rule (_Fold.best). Under quadratic prices the
    points are priced in decreasing max welfare (compared as integers),
    ties by point coordinates. Revenue never exceeds the welfare at its
    point (revenue = welfare - sum of utilities, each utility >= 0), so
    the search stops at the first point whose welfare is below the best
    revenue found; points whose welfare equals it are still priced,
    since they may win the tie on coordinates.

    Under quadratic prices the search is best-first, so a point that
    cannot win is never folded. The splits are grouped by point, and
    each point enters a heap keyed by (-value, coords), its value being
    the bound max over its splits of sum_j max_b v_b(S_j) (see _Fold),
    which no split's welfare exceeds. The top entry is taken: if its
    value is below the best revenue the search stops; if the point is
    not yet folded, its splits are folded and it goes back with its
    exact welfare as value and its best split; otherwise it is priced at
    that split. A bound is never below its welfare, so the points are
    priced in the same (-welfare, coords) order, and the search stops at
    the same point, as if every point had been folded first. Each point is priced against the best
    result so far, and its LP rounds stop once they rule it out (see
    _price_at), which leaves the sequence of best results unchanged.

    Walrasian mode folds the whole stream of splits in one call, with no
    grouping by point and no heap, and prices the one split it returns:
    the least point of maximal welfare, at its least welfare-maximal
    split. Linear prices charge p.s for every allocation of the supply,
    so:
    - any Walrasian CE (p, T) has T efficient: every agent's utility at T
      is maximal, so the value of T minus p.s is at least the value of
      any other allocation of the supply minus the same p.s;
    - p then supports every efficient split (Gul and Stacchetti, JET 87,
      1999): the utilities of an efficient split sum to that same
      maximum, so each is maximal. So p supports the least
      welfare-maximal split at the least point of maximal welfare;
    - so that point's LP optimum is at least every Walrasian CE's
      revenue, hence the best revenue; every CE point has maximal
      welfare, so the tie-break on coordinates picks that point too.
    If that LP is infeasible, no Walrasian CE exists: a certified
    no-point-found."""
    g = _common_graph(vs)
    m = len(vs)
    supply = _checked_supply(g, supply, m, caps)
    if any(s > m for s in supply):
        raise ValueError(
            f"supply entries must lie in 0..m, the agent count m = {m}; got {list(supply)}"
        )
    if not all(v.is_finite() for v in vs):
        raise ValueError("weights must be finite for optimal_ce")

    items = enumerate_aggregates(g, supply, m, caps)
    fold = _Fold(vs)
    bundles = bundle_table(g)
    if walrasian:
        _, alloc, coords = fold.best(items)
        res = _price_at(vs, GPoint(g, coords), tuple([bundles[s] for s in alloc]), True, caps)
        return res if res.status == FOUND else CEResult(NO_POINT_FOUND)
    # The splits of each point not yet folded.
    splits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for coords, masks in items:
        splits.setdefault(coords, []).append(masks)
    heap = [(-max(map(fold.bound, group)), coords) for coords, group in splits.items()]
    heapq.heapify(heap)
    best: Optional[CEResult] = None
    # A point is in the heap once, so no two entries tie on (value, coords).
    while heap and (best is None or -heap[0][0] >= best.revenue * fold.scale):
        top = heapq.heappop(heap)
        coords = top[1]
        if coords in splits:
            welfare, alloc, _ = fold.best(zip(repeat(coords), splits.pop(coords)))
            heapq.heappush(heap, (-welfare, coords, alloc))
            continue
        alloc = tuple([bundles[s] for s in top[2]])
        res = _price_at(vs, GPoint(g, coords), alloc, False, caps, best)
        if res.status == FOUND:
            best = res
    if best is None:
        if g.is_complete():
            raise InternalError(
                "no CE point over a complete graph: contradicts the nested-chain guarantee"
            )
        return CEResult(NO_POINT_FOUND)
    return best


def check_covering(vs: Sequence[Valuation]) -> list[Bundle]:
    """Validate clique bids jointly covering all item types; returns the
    per-agent supports."""
    g = _common_graph(vs)
    supports = []
    for b, v in enumerate(vs):
        sup = v.support
        for i, j in g.edges:
            if i in sup and j in sup:
                if not is_finite(v.weights[g.edge_coord(i, j)]):
                    raise CoveringError(
                        f"agent {b}: edge ({i},{j}) inside the support has weight -inf"
                    )
        supports.append(sup)
    uncovered = set(range(g.n)) - set().union(*supports)
    if uncovered:
        raise CoveringError(f"vertices {sorted(uncovered)} are in no agent's support")
    return supports


def is_compatible(a: GPoint, supports: Sequence[Bundle]) -> bool:
    g = a.graph
    return all(
        any(i in sup and j in sup for sup in supports)
        for i, j in g.edges
        if a.coords[g.edge_coord(i, j)] > 0
    )


def _covering_level(supply: Sequence[int]) -> int:
    """The one nonzero level r of a covering supply in {0, r}^n, or 0
    when nothing is supplied; ValueError on two or more levels."""
    levels = {s for s in supply if s != 0}
    if len(levels) > 1:
        raise ValueError(f"supply must lie in {{0, r}}^n, got levels {sorted(levels)}")
    return levels.pop() if levels else 0


def ce_for_covering(
    vs: Sequence[Valuation],
    supply: Sequence[int],
    a: GPoint,
    *,
    caps: Caps = DEFAULT_CAPS,
) -> CEResult:
    """CE construction for covering clique bids at a compatible point: the
    revenue-maximal price of a welfare-maximal split, from the same exact
    LP as ce_price_at_point.

    The existence proof substitutes -M for each -inf weight and lets M
    grow. In exact arithmetic that limit is this LP: a bundle of value
    -inf constrains no price, so it adds no row. Points at which no split
    avoids the -inf entries, or whose LP is infeasible, are certified
    infeasible-at-point.
    """
    g = _common_graph(vs, a.graph)
    supply = _checked_supply(g, supply, len(vs), caps)
    supports = check_covering(vs)
    if a.coords[: g.n] != supply:
        raise ValueError(f"point projects to {a.coords[:g.n]}, not the supply {supply}")
    _covering_level(supply)
    if not is_compatible(a, supports):
        raise ValueError(
            "point has a positive edge coordinate outside every agent's support"
        )

    welfare, alloc = max_welfare(vs, a, caps)
    return _price_at(vs, a, alloc if is_finite(welfare) else None, False, caps)
