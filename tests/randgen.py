"""Random instance generators for the property suites and experiment
scripts. All randomness flows through a caller-supplied random.Random so
runs are reproducible from a seed.
"""
from __future__ import annotations

import random
from fractions import Fraction

from gpauction.model import NEG_INF, Valuation, ValueGraph, char_vector, GPoint
from gpauction.polytope import nested_chain_point


def random_valuation(
    rng: random.Random, graph: ValueGraph, lo: int = -5, hi: int = 5
) -> Valuation:
    return Valuation(
        graph, tuple(Fraction(rng.randint(lo, hi)) for _ in range(graph.d))
    )


def random_price(
    rng: random.Random, graph: ValueGraph, lo: int = -5, hi: int = 5
) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(graph.d))


def _partition(rng: random.Random, items: list[int], blocks: int) -> list[set[int]]:
    rng.shuffle(items)
    out: list[set[int]] = [set() for _ in range(blocks)]
    for k, i in enumerate(items):
        out[k if k < blocks else rng.randrange(blocks)].add(i)
    return out


def disjoint_clique_instance(rng: random.Random):
    """Instance over a complete graph: supply with a common
    multiplicity r on a random vertex set, and an aggregate point assembled
    from r copies each of s disjoint cliques with r*s <= m (so the point is
    a sum of m bundles)."""
    n = rng.randint(2, 5)
    m = rng.randint(1, 5)
    r = rng.randint(1, m)
    g = ValueGraph.complete(n)
    vs = [random_valuation(rng, g) for _ in range(m)]
    supplied = [i for i in range(n) if rng.random() < 0.7]
    supply = tuple(r if i in supplied else 0 for i in range(n))
    point = GPoint.zero(g)
    if supplied:
        s = rng.randint(1, min(m // r, len(supplied)))
        for block in _partition(rng, supplied, s):
            if block:
                point = point + char_vector(block, g).scale(r)
    return vs, supply, point


def arbitrary_supply_instance(rng: random.Random):
    """Instance with an arbitrary supply in {0..m}^n plus its nested-chain
    lift, the canonical point at which a CE is guaranteed."""
    n = rng.randint(2, 5)
    m = rng.randint(1, 5)
    g = ValueGraph.complete(n)
    vs = [random_valuation(rng, g) for _ in range(m)]
    supply = tuple(rng.randint(0, m) for _ in range(n))
    point, _ = nested_chain_point(supply, m, g)
    return vs, supply, point


def covering_instance(rng: random.Random):
    """Clique bids whose supports jointly cover all items, with -inf
    outside each support, plus a compatible decomposable point built from
    disjoint blocks. Each of the r copies of each block gets a distinct
    owner agent whose support contains the block, so the point can be
    split without touching any -inf entry."""
    n = rng.randint(2, 5)
    m = rng.randint(1, 5)
    r = rng.randint(1, m)
    g = ValueGraph.complete(n)
    supplied = [i for i in range(n) if rng.random() < 0.7]
    s = rng.randint(1, min(m // r, max(1, len(supplied))))
    blocks = _partition(rng, list(supplied), s) if supplied else []
    owners = rng.sample(range(m), len(blocks) * r) if blocks else []

    supports: list[set[int]] = [set() for _ in range(m)]
    for k, b in enumerate(owners):
        supports[b] |= blocks[k % len(blocks)]
    for i in range(n):  # cover the unsupplied vertices too
        if not any(i in sup for sup in supports):
            supports[rng.randrange(m)].add(i)
    for sup in supports:  # random enlargements keep it interesting
        for i in range(n):
            if rng.random() < 0.25:
                sup.add(i)

    vs = []
    for sup in supports:
        weights = []
        for i in range(n):
            weights.append(Fraction(rng.randint(-5, 5)) if i in sup else NEG_INF)
        for i, j in g.edges:
            inside = i in sup and j in sup
            weights.append(Fraction(rng.randint(-5, 5)) if inside else NEG_INF)
        vs.append(Valuation(g, tuple(weights)))

    supply = tuple(r if i in supplied else 0 for i in range(n))
    point = GPoint.zero(g)
    for block in blocks:
        if block:
            point = point + char_vector(block, g).scale(r)
    return vs, supply, point


def shift_triple(rng: random.Random):
    """A valuation, a price, and a finite shift vector over a random graph
    (complete or thinned)."""
    n = rng.randint(1, 5)
    g = ValueGraph.complete(n)
    if n > 1 and rng.random() < 0.4:
        kept = tuple(e for e in g.edges if rng.random() < 0.6)
        g = ValueGraph(n, kept)
    weights = []
    for i in range(g.d):
        if i < g.n and rng.random() < 0.2:
            weights.append(NEG_INF)
        else:
            weights.append(Fraction(rng.randint(-4, 4)))
    v = Valuation(g, tuple(weights))
    p = random_price(rng, g)
    c = tuple(Fraction(rng.randint(-3, 3)) for _ in range(g.d))
    return v, p, c
