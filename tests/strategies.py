"""Shared hypothesis strategies."""
from fractions import Fraction

from hypothesis import strategies as st

from gpauction.model import NEG_INF, ValueGraph, Valuation


@st.composite
def graphs(draw, max_n: int = 5, complete_only: bool = False):
    n = draw(st.integers(1, max_n))
    if complete_only or n == 1 or draw(st.booleans()):
        return ValueGraph.complete(n)
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges))
    )
    return ValueGraph(n, tuple(edges))


def thinned(draw, g: ValueGraph) -> ValueGraph:
    """g, or g keeping each edge with probability 4/5."""
    if draw(st.booleans()):
        return g
    keep = draw(st.lists(st.integers(0, 4), min_size=len(g.edges), max_size=len(g.edges)))
    return ValueGraph(g.n, tuple(e for e, k in zip(g.edges, keep) if k))


def small_fractions(lo: int = -5, hi: int = 5):
    return st.fractions(
        min_value=Fraction(lo), max_value=Fraction(hi), max_denominator=6
    )


@st.composite
def bundles(draw, n: int):
    return frozenset(draw(st.sets(st.integers(0, n - 1))))


@st.composite
def valuations(draw, graph: ValueGraph, allow_neg_inf: bool = False):
    weights = []
    for k in range(graph.d):
        if allow_neg_inf and k < graph.n and draw(st.booleans()) and draw(st.booleans()):
            weights.append(NEG_INF)
        else:
            weights.append(draw(small_fractions()))
    return Valuation(graph, tuple(weights))
