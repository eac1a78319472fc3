"""Demand sets, aggregate welfare, and the equilibrium verifiers.

A competitive equilibrium (CE) requires every agent to receive a bundle
from their demand set at the announced price; a pricing equilibrium (PE)
additionally requires the sold aggregate to maximize seller revenue over
all attainable aggregates with the same projection; a Walrasian
equilibrium is a CE under linear (vertex-only) pricing.

Bundles are valued through the integer tables of `model`: a valuation's
cached Valuation.table (scale L) and a price's PriceVector.table (its
common denominator D). A utility is then the integer value * D - paid * L
in units of 1 / (L * D), so every comparison here is an integer one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .caps import DEFAULT_CAPS, Caps
from .model import (
    Allocation,
    Bundle,
    GPoint,
    NEG_INF,
    PriceVector,
    Valuation,
    ValueGraph,
    Weight,
    aggregate,
    as_fraction,
    bundle_mask,
    common_tables,
    project,
)
from .polytope import (
    _checked_supply,
    _splits,
    _supply_tuple,
    bundle_table,
    enumerate_decompositions,
)


@dataclass(frozen=True)
class DemandSet:
    """All utility-maximizing bundles of one agent at one price."""

    bundles: frozenset[Bundle]
    utility_value: Fraction


def _utilities(
    values: tuple[int, Sequence[Optional[int]]], prices: tuple[int, Sequence[int]]
) -> tuple[int, list[Union[int, float]]]:
    """Every bundle's utility from a value table (L, val) and a price
    table (D, paid), as (L * D, u): u[mask] is the integer
    val[mask] * D - paid[mask] * L, the utility in units of 1 / (L * D),
    and NEG_INF where the value is -inf (an int compares exactly with it)."""
    L, val = values
    D, paid = prices
    return L * D, [NEG_INF if x is None else x * D - y * L for x, y in zip(val, paid)]


def _demanded(u: Sequence[Union[int, float]]) -> tuple[int, list[int]]:
    """The best utility and every bundle bitmask attaining it. The empty
    bundle (u[0] = 0) always competes, so the best is finite."""
    best = max(u)
    return best, [s for s, x in enumerate(u) if x == best]


def demand_set(v: Valuation, p: PriceVector, caps: Caps = DEFAULT_CAPS) -> DemandSet:
    """Argmax of value minus price over all bundles, as integer utilities
    from the valuation's and the price's tables. A bundle outside the
    finite support is worth -inf, below the empty bundle. The tables span
    every bundle of the graph, so the cap applies to the graph's n: a
    graph above it raises CapExceededError even when the support is
    small."""
    if v.graph != p.graph:
        raise ValueError("valuation and price over different graphs")
    caps.check_n(v.graph.n)
    scale, u = _utilities(v.table, p.table())
    best, masks = _demanded(u)
    bundles = bundle_table(v.graph)
    return DemandSet(frozenset(bundles[s] for s in masks), Fraction(best, scale))


def _bundle_key(S: Bundle) -> tuple[int, ...]:
    return tuple(sorted(S))


@lru_cache(maxsize=None)
def _ranks(n: int) -> tuple[int, ...]:
    """rank[mask]: the place of the bundle with that bitmask among all 2^n
    bundles sorted by _bundle_key, so comparing two bundles' ranks
    compares their _bundle_keys, and comparing two allocations' rank
    tuples compares their key tuples. Built on first use."""
    order = sorted(
        range(1 << n), key=lambda s: _bundle_key(i for i in range(n) if s >> i & 1)
    )
    rank = [0] * (1 << n)
    for r, s in enumerate(order):
        rank[s] = r
    return tuple(rank)


def _exact(w: Union[int, float], scale: int) -> Weight:
    """An integer in units of 1 / scale as a Fraction; NEG_INF stays."""
    return w if w is NEG_INF else Fraction(w, scale)


@lru_cache(maxsize=None)
def _plan(counts: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The states of _assign's DP for kinds with these counts c, m parts
    in all. A state is a count vector u <= c of parts already given, at
    index sum_k u_k * w_k with w_k = prod_{l<k} (c_l + 1); its agent next
    in line is b = sum_k u_k. Entry idx lists, for each kind k with
    u_k < c_k in increasing k, the move (k * m + b, idx + w_k): where
    agent b's value of kind k sits in the kinds' values laid out kind by
    kind, and the state after it. Each move raises the index, so the DP
    runs over decreasing indices. Built on first use; there are at most
    2^(m-1) count tuples of m parts."""
    m = sum(counts)
    weights, size = [], 1
    for c in counts:
        weights.append(size)
        size *= c + 1
    plan = []
    for idx in range(size):
        u = [idx // w % (c + 1) for w, c in zip(weights, counts)]
        b = sum(u)
        plan.append(tuple(
            (k * m + b, idx + w)
            for k, (x, c, w) in enumerate(zip(u, counts, weights))
            if x < c
        ))
    return tuple(plan)


def _columns(
    tables: Sequence[Sequence[Optional[int]]],
) -> tuple[Union[int, float], list[tuple[int, ...]]]:
    """(low, cols): the agents' values per bundle as integers,
    cols[mask][b] = tables[b][mask]. A None (-inf) stands as -(2M + 1),
    M = m * the largest |finite value|, and low = -M, so a total below
    low holds a -inf value and any other is exact; low is NEG_INF when
    there is no None. Built once per fold."""
    if not any(None in t for t in tables):
        return NEG_INF, list(zip(*tables))
    M = len(tables) * max([abs(x) for t in tables for x in t if x is not None], default=0)
    tables = [[-2 * M - 1 if x is None else x for x in t] for t in tables]
    return -M, list(zip(*tables))


def _assign(
    masks: Sequence[int],
    cols: Sequence[Sequence[int]],
    rank: Sequence[int],
    low: Union[int, float],
    floor: Union[int, float] = NEG_INF,
) -> tuple[Union[int, float], Optional[tuple[int, ...]]]:
    """Best matching of a split's m parts to the m agents. masks are the
    parts' bitmasks, (low, cols) come from _columns (cols[mask][b] is
    agent b's value of that bundle on one scale), and rank is _ranks(n).
    The DP runs over the split's distinct bundles (kinds) in rank order,
    with counts c_k: f(u), for a count vector u <= c (see _plan), is the
    best total of giving the parts left over to agents sum_k u_k..m-1.
    That is prod_k (c_k + 1) states, 2^m when the parts are all distinct.
    It adds integers only; the welfare returned is f(0), NEG_INF when it
    is below low (every matching hits a -inf value).

    The witness, one bitmask per agent, is built only when the welfare is
    not below floor (it is None otherwise). It gives each agent in turn
    the kind of least rank that has a part left and still attains f, so
    it is the lexicographically least maximizer by _bundle_key (no
    stand-in attains a finite f); when the welfare is -inf every matching
    ties and the witness is the parts in rank order."""
    kinds = sorted(set(masks), key=rank.__getitem__)
    counts = tuple(map(masks.count, kinds))
    plan = _plan(counts)
    vals: list[int] = []
    for s in kinds:
        vals += cols[s]
    f = [0] * len(plan)
    for idx in range(len(plan) - 2, -1, -1):
        f[idx] = max([vals[v] + f[nxt] for v, nxt in plan[idx]])
    welfare = f[0] if f[0] >= low else NEG_INF
    if welfare < floor:
        return welfare, None
    if welfare == NEG_INF:
        return NEG_INF, tuple([s for s, c in zip(kinds, counts) for _ in range(c)])
    m = len(masks)
    idx, alloc = 0, []
    for _ in range(m):
        for v, nxt in plan[idx]:
            if vals[v] + f[nxt] == f[idx]:
                break
        idx = nxt
        alloc.append(kinds[v // m])
    return welfare, tuple(alloc)


def _rank_key(alloc: Sequence[int], rank: Sequence[int]) -> list[int]:
    """The tie-break order of two splits of one point (allocations as
    bitmasks): the least bundle multiset by _bundle_key. The agent order
    is never needed: _splits yields each multiset once per point, so two
    splits of one point differ as multisets, and _assign already returns
    the least agent order within one."""
    return sorted([rank[s] for s in alloc])


class _Fold:
    """The one fold rule over one column table of the valuations: best
    folds a stream of splits to its best one.

    The caller says what it folds: the splits of one point (max_welfare,
    or a quadratic optimal_ce point), or every split of a supply
    (Walrasian optimal_ce). Callers create the items before the fold, so
    the enumerators' cap checks raise before any table here."""

    __slots__ = ("scale", "low", "cols", "rank", "tops")

    def __init__(self, vs: Sequence[Valuation]):
        self.scale, tables = common_tables(vs)
        self.low, self.cols = _columns(tables)
        self.rank = _ranks(vs[0].graph.n)
        self.tops: Optional[list[int]] = None

    def bound(self, masks: Sequence[int]) -> int:
        """sum_j max_b v_b(S_j), at least the welfare of every matching of
        the split (below every finite welfare when no agent values some
        part finitely). The table of tops[mask] = max_b v_b(mask) is built
        on the first call."""
        if self.tops is None:
            self.tops = [max(col) for col in self.cols]
        tops = self.tops
        return sum([tops[s] for s in masks])

    def best(
        self, items: Iterable[tuple[tuple[int, ...], Sequence[int]]]
    ) -> Optional[tuple[Union[int, float], tuple[int, ...], tuple[int, ...]]]:
        """The best of the (coords, masks) items as (welfare, alloc,
        coords): the integer welfare in units of 1 / scale (NEG_INF for
        -inf), one bitmask per agent and the split's point; None when
        there is no item. The higher welfare wins, ties going to the least
        (coords, _rank_key).

        The first split is matched with _assign. A later split is skipped
        when its bound (see bound) is strictly below the best so far, as
        it can neither win nor tie, and gets that best as floor otherwise;
        so the result is exact. _assign is looked up in this module on
        each call, so a wrapper set there sees every split matched."""
        cols, rank, low = self.cols, self.rank, self.low
        cur = None
        for coords, masks in items:
            if cur is None:
                cur = (*_assign(masks, cols, rank, low), coords)
            elif self.bound(masks) >= cur[0]:
                welfare, alloc = _assign(masks, cols, rank, low, cur[0])
                if alloc is not None and (
                    welfare > cur[0]
                    or (coords, _rank_key(alloc, rank)) < (cur[2], _rank_key(cur[1], rank))
                ):
                    cur = (welfare, alloc, coords)
        return cur


def _common_graph(vs: Sequence[Valuation], graph: Optional[ValueGraph] = None) -> ValueGraph:
    """The one graph of the valuations, which must be graph when given.
    No valuation, or two graphs, raise ValueError. The entry points run
    this before any cap, table or search reads a valuation."""
    if not vs:
        raise ValueError("need at least one valuation")
    g = vs[0].graph if graph is None else graph
    if any(v.graph != g for v in vs):
        raise ValueError(
            "valuations over different graphs"
            if graph is None
            else "valuations and point over different graphs"
        )
    return g


def max_welfare(
    vs: Sequence[Valuation], a: GPoint, caps: Caps = DEFAULT_CAPS
) -> tuple[Weight, Optional[Allocation]]:
    """Maximal total value over all ways to split a into m demandable
    bundles, matching parts to agents. Returns (NEG_INF, None) when a is
    not decomposable; otherwise the optimum with a deterministic witness:
    among the maximizers, the lexicographically least allocation (least
    bundle multiset, then least agent order). The welfare bounds the
    revenue of any CE selling a: revenue = welfare - sum of utilities, and
    each utility is >= 0 because the empty bundle costs nothing."""
    _common_graph(vs, a.graph)
    items = enumerate_decompositions(a, len(vs), caps)
    fold = _Fold(vs)
    best = fold.best(items)
    if best is None:
        return NEG_INF, None
    bundles = bundle_table(a.graph)
    return _exact(best[0], fold.scale), tuple([bundles[s] for s in best[1]])


@dataclass(frozen=True)
class AgentWitness:
    """A strictly better bundle for an agent whose assignment is undemanded."""

    agent: int
    assigned: Bundle
    assigned_utility: Weight
    better: Bundle
    better_utility: Fraction


@dataclass(frozen=True)
class CEVerdict:
    ok: bool
    revenue: Fraction
    failures: tuple[AgentWitness, ...]


def verify_ce(
    vs: Sequence[Valuation],
    alloc: Allocation,
    p: PriceVector,
    caps: Caps = DEFAULT_CAPS,
) -> CEVerdict:
    """Check that every agent's assigned bundle lies in their demand set;
    failures carry a strictly better bundle as witness."""
    if len(alloc) != len(vs):
        raise ValueError("allocation and valuation counts differ")
    g = p.graph
    # Items off the graph are rejected before the bundle masks below
    # index the tables.
    masks = [bundle_mask(g, S) for S in alloc]
    if any(v.graph != g for v in vs):
        raise ValueError("valuation and price over different graphs")
    caps.check_n(g.n)
    prices = p.table()
    D, paid = prices
    # The price of the aggregate is the sum of its bundles' prices.
    revenue = Fraction(sum([paid[s] for s in masks]), D)
    bundles = bundle_table(g)
    failures = []
    for b, (v, S, s) in enumerate(zip(vs, alloc, masks)):
        scale, u = _utilities(v.table, prices)
        best, best_masks = _demanded(u)
        if u[s] == best:
            continue
        better = min((bundles[t] for t in best_masks), key=_bundle_key)
        failures.append(
            AgentWitness(b, S, _exact(u[s], scale), better, Fraction(best, scale))
        )
    return CEVerdict(not failures, revenue, tuple(failures))


def candidate_points(graph: ValueGraph, supply: Sequence[int]) -> Iterator[GPoint]:
    """All integer points over the graph projecting onto the supply, with
    each edge coordinate in 0..min of its endpoint supplies, in
    lexicographic order. Every aggregate of characteristic vectors lies in
    this box."""
    supply = _supply_tuple(graph, supply)
    ranges = [range(min(supply[i], supply[j]) + 1) for i, j in graph.edges]
    for combo in itertools.product(*ranges):
        yield GPoint(graph, supply + combo)


def seller_demand(
    p: PriceVector,
    supply: Sequence[int],
    m: int,
    caps: Caps = DEFAULT_CAPS,
    *,
    above: Optional[Union[int, str, Fraction]] = None,
) -> frozenset[GPoint]:
    """Revenue-maximizing aggregates at a price: among all decomposable
    points projecting onto the supply, every one maximizing <p, a> (all
    ties are kept). They come from the multiset search scored by the
    price's edge integers (D, P), so points that are not sums of m
    bundles are never tried. Every such point pays the vertex part
    sum_i P_i * s_i, so the search ranks its splits by the edge part alone
    and drops a branch only when a closed-form bound on every split below
    it is strictly below the best split found (see _splits). The splits'
    revenues are read off their coordinates; a GPoint is built only for
    the points returned.

    With above, an exact rational, only the maximizers paying strictly
    more than above are returned, and none when no point does. An edge
    score pays more exactly when it is at least
    floor(above * D) - sum_i P_i * s_i + 1, so the search starts with that
    as its best instead of -inf and every branch that cannot reach it
    dies; with every edge price zero and above at least the vertex part,
    it ends at the root. The caps and the supply are checked first, then
    above (a float raises TypeError), and only then is the price read."""
    g = p.graph
    supply = _checked_supply(g, supply, m, caps)
    above = None if above is None else as_fraction(above)
    D, P = p.scaled()
    floor = NEG_INF
    if above is not None:
        vertex = sum(map(mul, P, supply))  # map stops at the n vertex entries
        floor = above.numerator * D // above.denominator - vertex + 1
    top, best = None, set()
    for coords, _ in _splits(g, supply, m, (), P[g.n :], floor):
        paid = sum(map(mul, P, coords))
        if paid != top:  # the revenues yielded never fall
            top, best = paid, set()
        best.add(coords)
    if not best and above is None:
        raise ValueError("no decomposable aggregate point projects onto the supply")
    return frozenset(GPoint(g, coords) for coords in best)


@dataclass(frozen=True)
class PEVerdict:
    ok: bool
    ce: CEVerdict
    revenue: Fraction
    seller_best_revenue: Fraction
    seller_optimal: bool


def verify_pe(
    vs: Sequence[Valuation],
    alloc: Allocation,
    p: PriceVector,
    supply: Sequence[int],
    caps: Caps = DEFAULT_CAPS,
) -> PEVerdict:
    """CE check plus the seller side: the sold aggregate must attain the
    maximal revenue among all decomposable points over the supply. That
    aggregate is one such point and pays the CE's revenue, so the seller
    side holds exactly when seller_demand finds no point paying strictly
    more; the best revenue is that of the points it finds, or the CE's
    own when there are none."""
    supply = _supply_tuple(p.graph, supply)
    sold = project(aggregate(p.graph, alloc))
    if sold != supply:
        raise ValueError(f"allocation sells {sold} but the supply is {supply}")
    ce = verify_ce(vs, alloc, p, caps)
    better = seller_demand(p, supply, len(vs), caps, above=ce.revenue)
    best = p.dot(next(iter(better))) if better else ce.revenue
    return PEVerdict(ce.ok and not better, ce, ce.revenue, best, not better)
