"""Geometry of the bundle polytope P(G): the convex hull of all
characteristic vectors a_S.

P(K_n) is the correlation (boolean quadric) polytope; no full facet
description is known for n >= 4, so faces are always handled
extensionally through their vertex lists. The module provides the
nested-chain decomposition of lifted supply points, exact Minkowski-sum
membership tests, and one search over the multisets of m bundles that
sell a supply: every decomposable aggregate over a supply comes from
that search, and the splits of one integer point of m*P are that search
on the point's projection with each edge's count pinned to its
coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .caps import DEFAULT_CAPS, Caps, CapExceededError
from .linprog import LinearProgram, OPTIMAL, lp_solve
from .model import Bundle, EMPTY_BUNDLE, GPoint, NEG_INF, ValueGraph, _coords, char_vector

VERTEX_PRODUCT_CAP = 10**8


@lru_cache(maxsize=None)
def bundle_table(graph: ValueGraph) -> tuple[Bundle, ...]:
    """The bundle of every subset bitmask, one shared frozenset each."""
    return tuple(
        frozenset(i for i in range(graph.n) if mask >> i & 1)
        for mask in range(1 << graph.n)
    )


@lru_cache(maxsize=None)
def _vertex_table(graph: ValueGraph) -> tuple[tuple[int, ...], ...]:
    """The coordinates of every subset bitmask's characteristic vector."""
    return tuple(_coords(graph, mask) for mask in range(1 << graph.n))


def vertices_P(graph: ValueGraph, caps: Caps = DEFAULT_CAPS) -> list[GPoint]:
    """All 2^n characteristic vectors, ordered by subset bitmask. These are
    exactly the vertices and the lattice points of P(G). The n cap is
    checked first; the GPoints are built per call from the cached
    coordinates."""
    caps.check_n(graph.n)
    return [GPoint(graph, c) for c in _vertex_table(graph)]


def nested_chain_point(
    bundle: Iterable[int], m: int, graph: ValueGraph
) -> tuple[GPoint, tuple[Bundle, ...]]:
    """Lift a supply bundle to the point with edge entries min(b_i, b_j),
    together with one split of it into m bundles: a chain of nested cliques
    where level t contributes the clique {i : b_i >= t}, padded with empty
    bundles. The parts are nested, so their bitmasks fall, empties last:
    the masks of the item enumerate_decompositions yields for this split."""
    if not graph.is_complete():
        raise ValueError("nested chain construction is defined over complete graphs")
    b = tuple(bundle)
    if len(b) != graph.n:
        raise ValueError(f"expected {graph.n} bundle entries, got {len(b)}")
    for i, x in enumerate(b):
        if not 0 <= x <= m:
            raise ValueError(f"bundle entry {x} at vertex {i} is outside [0, {m}]")
    coords = list(b)
    coords.extend(min(b[i], b[j]) for i, j in graph.edges)
    point = GPoint(graph, tuple(coords))
    top = max(b, default=0)
    parts = tuple(
        frozenset(i for i in range(graph.n) if b[i] >= t) for t in range(1, top + 1)
    )
    return point, parts + (EMPTY_BUNDLE,) * (m - top)


def enumerate_decompositions(
    a: GPoint, m: int, caps: Caps = DEFAULT_CAPS
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (coords, masks) for every multiset of m bundles whose
    characteristic vectors sum to a, each exactly once: coords equals
    a.coords, masks are the bundles' bitmasks in decreasing order, empties
    as 0 last (bundle_table maps them to bundles). Empty iterator iff a is
    not a sum of m lattice points of P(G).

    These are the splits of a's projection whose edge counts equal a's
    edge coordinates: the search of enumerate_aggregates with every edge
    pinned to its coordinate, so both yield items of one shape.
    """
    g = a.graph
    caps.check_n(g.n)
    caps.check_m(m)
    if any(c < 0 for c in a.coords):
        raise ValueError("point must be nonnegative")
    n = g.n
    pins = [(i, j, n + t, a.coords[n + t]) for t, (i, j) in enumerate(g.edges)]
    return _splits(g, a.coords[:n], m, pins)


def enumerate_aggregates(
    graph: ValueGraph, supply: Sequence[int], m: int, caps: Caps = DEFAULT_CAPS
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (coords, masks) for every multiset of m bundles that sells
    exactly the supply: masks the bundles' bitmasks in the canonical order
    of enumerate_decompositions (decreasing, empties as 0 last), coords
    the coordinates of their characteristic-vector sum. These points are
    exactly the decomposable ones projecting onto the supply; a point
    appears once per decomposition, so callers fold the items and build a
    GPoint (and the bundles, through bundle_table) for the ones they keep.
    It is the unpriced search: every split scores 0, so none is pruned by
    the bound and all are yielded. The caps, the part count and the
    supply are checked when called, before any work."""
    return _splits(graph, _checked_supply(graph, supply, m, caps), m, ())


def _checked_supply(
    graph: ValueGraph, supply: Sequence[int], m: int, caps: Caps
) -> tuple[int, ...]:
    """The supply as a tuple, after the caps on graph.n and m, the type and
    sign of m and the supply's length, entry types and signs are checked."""
    caps.check_n(graph.n)
    caps.check_m(m)
    return _supply_tuple(graph, supply)


def _supply_tuple(graph: ValueGraph, supply: Sequence[int]) -> tuple[int, ...]:
    """The supply as a tuple, after its length, its entries' type (int,
    not bool) and their signs are checked."""
    supply = tuple(supply)
    if len(supply) != graph.n:
        raise ValueError(f"expected {graph.n} supply entries")
    if any(type(s) is not int for s in supply):
        raise ValueError("supply entries must be integers")
    if any(s < 0 for s in supply):
        raise ValueError("supply entries must be nonnegative")
    return supply


def _splits(
    graph: ValueGraph,
    supply: tuple[int, ...],
    m: int,
    pins: Sequence[tuple[int, int, int, int]],
    edge_prices: Sequence[int] = (),
    floor: Union[int, float] = NEG_INF,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(coords, masks) for every multiset of m bundles that sells exactly
    the supply, puts each pinned edge in exactly its count of bundles and
    scores not below the best split before it: pins lists (i, j, e, c)
    for edge ij at coordinate e with count c. coords is the tuple of the
    bundles' characteristic-vector sum, masks their bitmasks in decreasing
    order, empties (0) last, so equal bundles are adjacent; the items come
    in decreasing order of the masks tuples.

    Depth-first search on the vertex residuals, kept on an explicit stack
    of self-contained nodes: top mask, k bundles left, residuals, spent
    mask, coordinates, score and the masks so far. The masks are a linked
    list (last mask, the masks before it), so a child copies no path and a
    deep search keeps memory linear in its depth. A node is popped and
    checked, and its children are pushed in increasing mask order, so they
    pop in decreasing order and the leaves come out in the order above. No
    node shares mutable state with another, and the depth is bounded by
    the caps alone. A vertex needing more than the k bundles left prunes
    the branch, a bundle using a vertex with no residual is skipped (a
    node carries the bitmask of those vertices, all of them at a leaf),
    and once the bitmasks fall below the highest vertex still needed no
    later bundle can cover it. An edge in x bundles so far, with end
    residuals r_i and r_j, lies in at least max(0, r_i + r_j - k) and at
    most min(r_i, r_j) of the bundles left; a pinned edge's branch dies
    once c - x leaves that range, which at a leaf (r_i = r_j = 0) leaves
    x = c. An edge that is not pinned needs no check: its count is at most
    the uses of either end, so it stays in 0..min(s_i, s_j), which are all
    the counts a split of the supply can give it.

    One rule scores the splits: a bundle scores its edge coordinates
    dotted with edge_prices, the integer prices P_e of the graph's edges
    in coordinate order (a table built once per call), and a node carries
    its bundles' scores summed. A leaf is yielded when its score is not
    below the best so far, which it then becomes, so the scores yielded
    never fall and the last ones are all the maximal ones. A node dies
    when its score plus the sum over P_e > 0 of P_e * min(r_i, r_j) and
    over P_e < 0 of P_e * max(0, r_i + r_j - k) is strictly below the best
    so far: by the range above that bounds every leaf below it, and a tie
    never dies. The best so far starts at floor. An unpriced search is the
    zero-price case: every score is 0 and the best starts at -inf, so
    every split is yielded. A floor of s + 1 asks only for the leaves
    scoring more than s (scores are integers); with every edge price zero
    the root's bound, 0, is below a floor of 1 and the search ends there.
    """
    n = graph.n
    bits = bundle_table(graph)
    rows = _vertex_table(graph)
    if edge_prices:
        score = [sum(map(mul, r[n:], edge_prices)) for r in rows]
    else:
        score = [0] * (1 << n)
    pos = [(i, j, w) for (i, j), w in zip(graph.edges, edge_prices) if w > 0]
    neg = [(i, j, w) for (i, j), w in zip(graph.edges, edge_prices) if w < 0]
    best = floor
    full = (1 << n) - 1
    spent = sum(1 << i for i in range(n) if not supply[i])
    stack = [(full, m, supply, spent, (0,) * graph.d, 0, ())]
    while stack:
        top, k, res, spent, acc, paid, path = stack.pop()
        dead = False
        for i, j, e, c in pins:
            ri, rj = res[i], res[j]
            if not max(0, ri + rj - k) <= c - acc[e] <= min(ri, rj):
                dead = True
                break
        if dead:
            continue
        if spent == full:
            if paid >= best:
                best = paid
                masks = [0] * k  # empties, then the masks last first: reversed below
                while path:
                    mask, path = path
                    masks.append(mask)
                yield acc, tuple(reversed(masks))
            continue
        if max(res) > k:
            continue
        bound = paid
        for i, j, w in pos:
            bound += w * min(res[i], res[j])
        for i, j, w in neg:
            x = res[i] + res[j] - k
            if x > 0:
                bound += w * x
        if bound < best:
            continue
        high = (full ^ spent).bit_length() - 1
        for mask in range(1 << high, top + 1):
            if mask & spent:
                continue
            sub = spent
            left = list(res)
            for i in bits[mask]:
                left[i] -= 1
                if not left[i]:
                    sub |= 1 << i
            acc_sub = tuple(map(add, acc, rows[mask]))
            stack.append((mask, k - 1, left, sub, acc_sub, paid + score[mask], (mask, path)))


@dataclass(frozen=True)
class Face:
    """A face of P(G), represented extensionally by its vertex set."""

    graph: ValueGraph
    vertices: tuple[GPoint, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a face needs at least one vertex")
        seen = set()
        for q in self.vertices:
            if q.graph != self.graph:
                raise ValueError("face vertex over a different graph")
            if not q.is_characteristic():
                raise ValueError(f"{q.coords} is not a characteristic vector")
            if q.coords in seen:
                raise ValueError("duplicate face vertex")
            seen.add(q.coords)

    @classmethod
    def from_bundles(cls, graph: ValueGraph, bundles: Iterable[Iterable[int]]) -> "Face":
        return cls(graph, tuple(char_vector(S, graph) for S in bundles))


def minkowski_contains(faces: list[Face], a: GPoint) -> bool:
    """Exact test for a in F^1 + ... + F^m: feasibility of convex weights
    per face whose weighted vertex sum hits a."""
    g = a.graph
    if any(f.graph != g for f in faces):
        raise ValueError("faces and point must share one graph")
    columns = [
        tuple(int(k == t) for k in range(len(faces))) + q.coords
        for t, f in enumerate(faces)
        for q in f.vertices
    ]
    rows = tuple(zip(*columns)) if columns else ((),) * (len(faces) + g.d)
    rhs = (1,) * len(faces) + a.coords
    return lp_solve(LinearProgram._of_ints((0,) * len(columns), rows, rhs)).status == OPTIMAL


def vertex_sum_contains(faces: list[Face], a: GPoint) -> Optional[tuple[GPoint, ...]]:
    """Search for one vertex per face summing to a; None if impossible.
    Depth-first on an explicit stack with residual pruning; deterministic
    in face/vertex order."""
    g = a.graph
    if any(f.graph != g for f in faces):
        raise ValueError("faces and point must share one graph")
    size = 1
    for f in faces:
        size *= len(f.vertices)
        if size > VERTEX_PRODUCT_CAP:
            raise CapExceededError(f"face vertex product exceeds cap {VERTEX_PRODUCT_CAP}")

    mfaces = len(faces)
    # A node: (face index, residual, vertices picked so far). Each face's
    # vertices are pushed reversed, so they pop in face/vertex order and
    # the first witness in that order is the one returned.
    stack = [(0, a.coords, ())]
    while stack:
        idx, res, picked = stack.pop()
        if idx == mfaces:
            if not any(res):
                return picked
            continue
        if any(c > mfaces - idx for c in res):
            continue
        for q in reversed(faces[idx].vertices):
            nxt = tuple(x - y for x, y in zip(res, q.coords))
            if not any(x < 0 for x in nxt):
                stack.append((idx + 1, nxt, picked + (q,)))
    return None
