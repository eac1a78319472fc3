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
from typing import Iterator, Optional, Sequence

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
    common_tables,
    project,
)
from .polytope import bundle_table, enumerate_aggregates, enumerate_decompositions


@dataclass(frozen=True)
class DemandSet:
    """All utility-maximizing bundles of one agent at one price."""

    bundles: frozenset[Bundle]
    utility_value: Fraction


def demand_set(v: Valuation, p: PriceVector, caps: Caps = DEFAULT_CAPS) -> DemandSet:
    """Argmax of value minus price over all bundles. Only subsets of the
    finite support can compete: anything else is dominated by the empty
    bundle, which is always considered. The support's submasks are walked
    over the valuation's and the price's tables, so utilities are the
    integers value * D - paid * L. The tables span every bundle of the
    graph, so the cap applies to the graph's n: a graph above it raises
    CapExceededError even when the support is small."""
    if v.graph != p.graph:
        raise ValueError("valuation and price over different graphs")
    caps.check_n(v.graph.n)
    D, paid = p.table()
    L, val = v.table
    support = sum(1 << i for i in v.support)
    best, best_masks = 0, [0]
    sub = support
    while sub:
        x = val[sub]
        if x is not None:  # None: a -inf edge weight inside the support
            u = x * D - paid[sub] * L
            if u > best:
                best, best_masks = u, [sub]
            elif u == best:
                best_masks.append(sub)
        sub = (sub - 1) & support
    bundles = bundle_table(v.graph)
    return DemandSet(frozenset(bundles[s] for s in best_masks), Fraction(best, L * D))


def _bundle_key(S: Bundle) -> tuple[int, ...]:
    return tuple(sorted(S))


def _alloc_key(alloc: Sequence[Bundle]) -> tuple:
    per_agent = tuple(_bundle_key(S) for S in alloc)
    return (tuple(sorted(per_agent)), per_agent)


def _assign(
    parts: Sequence[Bundle], tables: Sequence[Sequence[Optional[int]]], scale: int
) -> tuple[Weight, Allocation]:
    """Best matching of the m parts to the m agents. tables[b][mask] is
    agent b's value of the bundle with that bitmask on one scale (see
    common_tables), None for -inf; the DP runs over subsets of parts:
    f(used) is the best total of giving the parts outside
    `used` to agents popcount(used)..m-1 (None when every way hits a -inf
    value), in units of 1/scale. The witness gives each agent in turn the
    part of least _bundle_key that still attains f, so it is the
    lexicographically least maximizer; when f(0) is -inf every matching
    ties and the witness is the parts sorted by _bundle_key."""
    m = len(parts)
    cols = [[t[s] for t in tables] for s in (sum(1 << i for i in S) for S in parts)]
    full = (1 << m) - 1
    f: list[Optional[int]] = [None] * (full + 1)
    f[full] = 0
    for used in range(full - 1, -1, -1):
        b = bin(used).count("1")
        best = None
        for j in range(m):
            if used >> j & 1:
                continue
            x, rest = cols[j][b], f[used | 1 << j]
            if x is not None and rest is not None and (best is None or x + rest > best):
                best = x + rest
        f[used] = best
    order = sorted(range(m), key=lambda j: _bundle_key(parts[j]))
    used, alloc = 0, []
    for b in range(m):
        for j in order:
            if used >> j & 1:
                continue
            x, rest = cols[j][b], f[used | 1 << j]
            if f[0] is None or (x is not None and rest is not None and x + rest == f[used]):
                break
        used |= 1 << j
        alloc.append(parts[j])
    return (NEG_INF if f[0] is None else Fraction(f[0], scale)), tuple(alloc)


def _better(
    cand: tuple[Weight, Allocation], cur: Optional[tuple[Weight, Allocation]]
) -> bool:
    """Higher welfare wins; equal welfare goes to the lexicographically
    least allocation (its bundle multiset first, then the agent order)."""
    return (
        cur is None
        or cand[0] > cur[0]
        or (cand[0] == cur[0] and _alloc_key(cand[1]) < _alloc_key(cur[1]))
    )


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
    m = len(vs)
    g = a.graph
    if any(v.graph != g for v in vs):
        raise ValueError("valuations and point over different graphs")
    scale, tables = common_tables(vs)
    best: Optional[tuple[Weight, Allocation]] = None
    for parts in enumerate_decompositions(a, m, caps):
        cand = _assign(parts, tables, scale)
        if _better(cand, best):
            best = cand
    return best if best is not None else (NEG_INF, None)


def point_welfares(
    vs: Sequence[Valuation], supply: Sequence[int], caps: Caps = DEFAULT_CAPS
) -> dict[GPoint, tuple[Weight, Allocation]]:
    """max_welfare of every decomposable point projecting onto the supply,
    from one enumeration of the multisets of m bundles that sell it: each
    multiset is matched to the agents as it arrives and only the best split
    per point is kept, with max_welfare's tie-break."""
    if not vs:
        raise ValueError("need at least one valuation")
    g = vs[0].graph
    if any(v.graph != g for v in vs):
        raise ValueError("valuations over different graphs")
    scale, tables = common_tables(vs)
    best: dict[GPoint, tuple[Weight, Allocation]] = {}
    for a, parts in enumerate_aggregates(g, supply, len(vs), caps):
        cand = _assign(parts, tables, scale)
        if _better(cand, best.get(a)):
            best[a] = cand
    return best


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
    # aggregate also rejects items off the graph, before the bundle masks
    # below index the tables.
    revenue = p.dot(aggregate(g, alloc))
    failures = []
    for b, (v, S) in enumerate(zip(vs, alloc)):
        ds = demand_set(v, p, caps)
        if S in ds.bundles:
            continue
        D, paid = p.table()
        L, val = v.table
        s = sum(1 << i for i in S)
        assigned_u = NEG_INF if val[s] is None else Fraction(val[s] * D - paid[s] * L, L * D)
        better = min(ds.bundles, key=_bundle_key)
        failures.append(
            AgentWitness(b, S, assigned_u, better, ds.utility_value)
        )
    return CEVerdict(not failures, revenue, tuple(failures))


def candidate_points(graph: ValueGraph, supply: Sequence[int]) -> Iterator[GPoint]:
    """All integer points over the graph projecting onto the supply, with
    each edge coordinate in 0..min of its endpoint supplies, in
    lexicographic order. Every aggregate of characteristic vectors lies in
    this box."""
    supply = tuple(supply)
    if len(supply) != graph.n:
        raise ValueError(f"expected {graph.n} supply entries")
    if any(s < 0 for s in supply):
        raise ValueError("supply entries must be nonnegative")
    ranges = [range(min(supply[i], supply[j]) + 1) for i, j in graph.edges]
    for combo in itertools.product(*ranges):
        yield GPoint(graph, supply + combo)


def seller_demand(
    p: PriceVector, supply: Sequence[int], m: int, caps: Caps = DEFAULT_CAPS
) -> frozenset[GPoint]:
    """Revenue-maximizing aggregates at a price: among all decomposable
    points projecting onto the supply, every one maximizing <p, a> (all
    ties are kept). The points come from enumerate_aggregates, so points
    that are not sums of m bundles are never tried."""
    g = p.graph
    points = {a for a, _ in enumerate_aggregates(g, supply, m, caps)}
    if not points:
        raise ValueError("no decomposable aggregate point projects onto the supply")
    revenue = {a: p.dot(a) for a in points}
    best = max(revenue.values())
    return frozenset(a for a, rev in revenue.items() if rev == best)


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
    maximal revenue among all decomposable points over the supply."""
    g = p.graph
    agg = aggregate(g, alloc)
    if project(agg) != tuple(supply):
        raise ValueError(
            f"allocation sells {project(agg)} but the supply is {tuple(supply)}"
        )
    ce = verify_ce(vs, alloc, p, caps)
    sd = seller_demand(p, supply, len(vs), caps)
    best = p.dot(next(iter(sd)))
    seller_ok = agg in sd
    return PEVerdict(ce.ok and seller_ok, ce, ce.revenue, best, seller_ok)

