"""Demand sets, aggregate welfare, and the equilibrium verifiers.

A competitive equilibrium (CE) requires every agent to receive a bundle
from their demand set at the announced price; a pricing equilibrium (PE)
additionally requires the sold aggregate to maximize seller revenue over
all attainable aggregates with the same projection; a Walrasian
equilibrium is a CE under linear (vertex-only) pricing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .model import (
    Allocation,
    Bundle,
    EMPTY_BUNDLE,
    GPoint,
    NEG_INF,
    PriceVector,
    Valuation,
    ValueGraph,
    Weight,
    aggregate,
    is_finite,
    project,
    value,
)
from .polytope import enumerate_aggregates, enumerate_decompositions


@dataclass(frozen=True)
class DemandSet:
    """All utility-maximizing bundles of one agent at one price."""

    price: PriceVector
    bundles: frozenset[Bundle]
    utility_value: Fraction
    agent: Optional[int] = None


def demand_set(
    v: Valuation, p: PriceVector, caps: Caps = DEFAULT_CAPS, agent: Optional[int] = None
) -> DemandSet:
    """Argmax of value minus price over all bundles. Only subsets of the
    finite support can compete: anything else is dominated by the empty
    bundle, which is always considered."""
    if v.graph != p.graph:
        raise ValueError("valuation and price over different graphs")
    support = sorted(v.support)
    caps.check_n(len(support))
    best = Fraction(0)
    best_bundles = {EMPTY_BUNDLE}
    for mask in range(1, 1 << len(support)):
        S = frozenset(support[i] for i in range(len(support)) if mask >> i & 1)
        val = value(v, S)
        if not is_finite(val):  # a -inf edge weight inside the support
            continue
        u = val - p.of_bundle(S)
        if u > best:
            best = u
            best_bundles = {S}
        elif u == best:
            best_bundles.add(S)
    return DemandSet(p, frozenset(best_bundles), best, agent)


def _bundle_key(S: Bundle) -> tuple[int, ...]:
    return tuple(sorted(S))


def _alloc_key(alloc: Sequence[Bundle]) -> tuple:
    per_agent = tuple(_bundle_key(S) for S in alloc)
    return (tuple(sorted(per_agent)), per_agent)


def _part_values(vs: Sequence[Valuation]):
    """Per-bundle lookup of every agent's value, scaled by the least common
    denominator of all finite weights so that the matching DP adds plain
    integers; None stands for -inf. Each bundle is valued once per call.
    Returns the lookup and the scale."""
    scale = math.lcm(*(w.denominator for v in vs for w in v.weights if is_finite(w)))
    cache: dict[Bundle, list[Optional[int]]] = {}

    def of(S: Bundle) -> list[Optional[int]]:
        row = cache.get(S)
        if row is None:
            row = cache[S] = [
                int(w * scale) if is_finite(w) else None
                for w in (value(v, S) for v in vs)
            ]
        return row

    return of, scale


def _assign(parts: Sequence[Bundle], of, scale: int) -> tuple[Weight, Allocation]:
    """Best matching of the m parts to the m agents, by an exact DP over
    subsets of parts: f(used) is the best total of giving the parts outside
    `used` to agents popcount(used)..m-1 (None when every way hits a -inf
    value), in units of 1/scale. The witness gives each agent in turn the
    part of least _bundle_key that still attains f, so it is the
    lexicographically least maximizer; when f(0) is -inf every matching
    ties and the witness is the parts sorted by _bundle_key."""
    m = len(parts)
    cols = [of(S) for S in parts]
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
    of, scale = _part_values(vs)
    best: Optional[tuple[Weight, Allocation]] = None
    for parts in enumerate_decompositions(a, m, caps):
        cand = _assign(parts, of, scale)
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
    of, scale = _part_values(vs)
    best: dict[GPoint, tuple[Weight, Allocation]] = {}
    for a, parts in enumerate_aggregates(g, supply, len(vs), caps):
        cand = _assign(parts, of, scale)
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
    failures = []
    for b, (v, S) in enumerate(zip(vs, alloc)):
        ds = demand_set(v, p, caps, agent=b)
        if S in ds.bundles:
            continue
        val = value(v, S)
        assigned_u = val - p.of_bundle(S) if is_finite(val) else NEG_INF
        better = min(ds.bundles, key=_bundle_key)
        failures.append(
            AgentWitness(b, S, assigned_u, better, ds.utility_value)
        )
    revenue = p.dot(aggregate(g, alloc))
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


def walrasian_exists(
    vs: Sequence[Valuation], supply: Sequence[int], caps: Caps = DEFAULT_CAPS
) -> Optional[tuple[PriceVector, Allocation]]:
    """Search for a CE under linear pricing (edge prices pinned to zero).
    Returns a witness or None after exhausting every decomposable point
    over the supply."""
    from . import pricing  # deferred: pricing builds on this module

    res = pricing.optimal_ce(vs, supply, walrasian=True, caps=caps)
    if res.status != pricing.FOUND:
        return None
    return res.price, res.allocation
