"""Core domain types for multi-unit combinatorial auctions with quadratic
valuations and anonymous quadratic (vertex + edge) pricing.

Vectors live in Q^d over a value graph on n vertices with d = n + |E|:
coordinates 0..n-1 are indexed by vertices, the rest by edges in
lexicographic order. All arithmetic is exact; weights are `Fraction`
with ``NEG_INF`` as the single non-finite value, so equilibrium checks
are plain equality tests.

A valuation and a price are the same quadratic form on bundles, so both
are tabulated the same way: bundle_sums scales a vector to integers and
sums it over every bundle bitmask, and the solvers compare those
integers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Optional, Sequence, Union

NEG_INF = float("-inf")

Weight = Union[Fraction, float]  # float only ever holds NEG_INF
Bundle = frozenset[int]
Allocation = tuple[Bundle, ...]

EMPTY_BUNDLE: Bundle = frozenset()


# Integral values in [-_SMALL, _SMALL] as one shared Fraction each, so
# results that keep many small prices and revenues do not each copy them.
# Built on first use: most of the range never occurs.
_SMALL = 256


@lru_cache(maxsize=None)
def _small_fraction(k: int) -> Fraction:
    return Fraction(k)


def shared_fraction(num: int, den: int = 1) -> Fraction:
    """num / den as a Fraction, shared when it is a small integer."""
    if num % den == 0 and -_SMALL <= num // den <= _SMALL:
        return _small_fraction(num // den)
    return Fraction(num, den)


# Integers, fractions and plain decimals only, as (sign, numerator,
# denominator, whole part, decimal digits). Fraction would also take
# exponents ("1e10000000" builds a ten-million-digit integer), spaces and
# underscores; digit strings stay bounded by Python's int conversion limit.
_RATIONAL = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?|(\d*)\.(\d+))", re.ASCII)


def as_fraction(x: Union[int, str, Fraction]) -> Fraction:
    """Exact rational from an int, a Fraction, or a string of _RATIONAL's
    grammar like "-1/2", whose groups give the numerator and denominator
    as ints, so the string is parsed once. A string outside the grammar,
    past the int digit limit or with a zero denominator is a ValueError."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, str):
        if isinstance(x, (bool, float)):
            raise TypeError(f"refusing inexact value {x!r}; use int, str or Fraction")
        return shared_fraction(x) if type(x) is int else Fraction(x)
    match = _RATIONAL.fullmatch(x)
    if not match:
        raise ValueError(f"{x!r} is not an exact rational")
    sign, num, den, whole, digits = match.groups()
    try:
        if digits is None:
            num, den = int(num), int(den) if den else 1
        else:
            # int(digits) meets the digit limit before 10 ** len(digits)
            # is built, so the power stays bounded too.
            num, den = int(digits), 10 ** len(digits)
            if whole:
                num += int(whole) * den
        return shared_fraction(-num if sign == "-" else num, den)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {x!r}") from exc


def as_weight(x) -> Weight:
    """Like :func:`as_fraction` but also accepting the symbol ``-inf``."""
    # Only a float can be -inf; testing the type first keeps every
    # Fraction out of Fraction.__eq__'s float path.
    if isinstance(x, float) and x == NEG_INF:
        return NEG_INF
    return as_fraction(x)


def is_finite(w: Weight) -> bool:
    # A Fraction never equals -inf; testing only floats keeps it out of
    # Fraction.__eq__'s float path.
    return w is not NEG_INF and not (type(w) is float and w == NEG_INF)


def scaled_ints(xs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The lcm D of the denominators of xs, and the integers D * x."""
    xs = list(xs)
    D = lcm(*(x.denominator for x in xs))
    return D, [x.numerator * (D // x.denominator) for x in xs]


@dataclass(frozen=True)
class ValueGraph:
    """Graph on vertices 0..n-1 fixing the coordinate order of all vectors.

    Vertex i owns coordinate i; edge (i, j) with i < j owns coordinate
    n + (lexicographic rank of (i, j)).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _edge_coord: dict[tuple[int, int], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge {e}: need 0 <= i < j < n")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        ordered = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", ordered)
        object.__setattr__(
            self, "_edge_coord", {e: self.n + k for k, e in enumerate(ordered)}
        )

    @classmethod
    def complete(cls, n: int) -> "ValueGraph":
        return cls(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "ValueGraph":
        return cls(n, tuple(tuple(sorted(e)) for e in edges))

    @property
    def d(self) -> int:
        return self.n + len(self.edges)

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edge_coord

    def edge_coord(self, i: int, j: int) -> int:
        return self._edge_coord[(min(i, j), max(i, j))]

    def coord_labels(self) -> list[str]:
        """Human-readable 1-based labels, one per coordinate."""
        return [str(i + 1) for i in range(self.n)] + [
            f"{i + 1}-{j + 1}" for i, j in self.edges
        ]


@dataclass(frozen=True, slots=True)
class GPoint:
    """Integer vector indexed by the vertices then edges of a graph."""

    graph: ValueGraph
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.graph.d:
            raise ValueError(
                f"expected {self.graph.d} coordinates, got {len(self.coords)}"
            )
        if any(type(c) is not int for c in self.coords):
            raise ValueError("coordinates must be integers")

    @classmethod
    def zero(cls, graph: ValueGraph) -> "GPoint":
        return cls(graph, (0,) * graph.d)

    def edge(self, i: int, j: int) -> int:
        return self.coords[self.graph.edge_coord(i, j)]

    def _require_same_graph(self, other: "GPoint") -> None:
        if self.graph != other.graph:
            raise ValueError("points live over different graphs")

    def __add__(self, other: "GPoint") -> "GPoint":
        self._require_same_graph(other)
        return GPoint(self.graph, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, k: int) -> "GPoint":
        return GPoint(self.graph, tuple(k * c for c in self.coords))

    def is_characteristic(self) -> bool:
        """True iff this is a_S for some bundle S: 0/1 coords with each edge
        coordinate equal to the product of its endpoint coordinates."""
        if any(c not in (0, 1) for c in self.coords):
            return False
        return all(
            self.coords[self.graph.edge_coord(i, j)] == self.coords[i] * self.coords[j]
            for i, j in self.graph.edges
        )

    def as_bundle(self) -> Bundle:
        if not self.is_characteristic():
            raise ValueError("not a characteristic vector")
        return frozenset(i for i in range(self.graph.n) if self.coords[i] == 1)


def _coords(graph: ValueGraph, mask: int) -> tuple[int, ...]:
    """The characteristic vector of the bundle with this bitmask: a bit
    per vertex, then a bit per edge internal to the bundle."""
    return tuple(mask >> i & 1 for i in range(graph.n)) + tuple(
        mask >> i & mask >> j & 1 for i, j in graph.edges
    )


def char_vector(S: Iterable[int], graph: ValueGraph) -> GPoint:
    """Characteristic vector a_S: vertex indicators of S plus indicators of
    the edges internal to S. An item off the graph raises ValueError."""
    return GPoint(graph, _coords(graph, bundle_mask(graph, S)))


def project(a: GPoint) -> tuple[int, ...]:
    """Forget the edge coordinates, keeping the n vertex coordinates."""
    return a.coords[: a.graph.n]


def bundle_mask(graph: ValueGraph, S: Iterable[int]) -> int:
    """The bitmask of a bundle; an item listed twice counts once. An item
    off the graph raises ValueError: every bundle read as a mask or a
    characteristic vector is checked here."""
    n, mask = graph.n, 0
    for i in S:
        if not 0 <= i < n:
            raise ValueError(f"bundle element {i} out of range [0, {n})")
        mask |= 1 << i
    return mask


def aggregate(graph: ValueGraph, alloc: Allocation) -> GPoint:
    """Sum of the characteristic vectors of an allocation's bundles: each
    vertex and each edge counts the bundles holding it."""
    total = (0,) * graph.d
    for S in alloc:
        total = tuple(map(add, total, _coords(graph, bundle_mask(graph, S))))
    return GPoint(graph, total)


@dataclass(frozen=True)
class Valuation:
    """Quadratic valuation given by a weight per vertex and per edge.

    A weight of NEG_INF marks items the agent will never accept; any bundle
    touching such a weight has value NEG_INF.
    """

    graph: ValueGraph
    weights: tuple[Weight, ...]

    def __post_init__(self):
        if len(self.weights) != self.graph.d:
            raise ValueError(
                f"expected {self.graph.d} weights, got {len(self.weights)}"
            )
        norm = tuple(as_weight(w) for w in self.weights)
        object.__setattr__(self, "weights", norm)

    @classmethod
    def zero(cls, graph: ValueGraph) -> "Valuation":
        return cls(graph, (Fraction(0),) * graph.d)

    @property
    def support(self) -> Bundle:
        """Vertices with finite weight."""
        return frozenset(i for i in range(self.graph.n) if is_finite(self.weights[i]))

    def is_finite(self) -> bool:
        return all(is_finite(w) for w in self.weights)

    @cached_property
    def table(self) -> tuple[int, tuple[Optional[int], ...]]:
        """(L, t): L is the lcm of the finite weights' denominators and
        t[mask] is L times the value of the bundle with that bitmask, None
        for -inf. Built on first use and kept on the valuation."""
        L = lcm(*(w.denominator for w in self.weights if is_finite(w)))
        ints = [
            w.numerator * (L // w.denominator) if is_finite(w) else None for w in self.weights
        ]
        return L, tuple(bundle_sums(self.graph, ints))


def common_tables(vs: Sequence[Valuation]) -> tuple[int, list[Sequence[Optional[int]]]]:
    """The valuations' tables over one scale: (L, tables) with L the lcm of
    their scales and tables[b][mask] = L * v_b(bundle), None for -inf."""
    tables = [v.table for v in vs]
    L = lcm(*(s for s, _ in tables))
    return L, [
        t if s == L else [None if x is None else x * (L // s) for x in t]
        for s, t in tables
    ]


@lru_cache(maxsize=None)
def _later_edges(graph: ValueGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vertex i, the (bit of j, coordinate of ij) of every edge ij
    with j > i, in increasing j."""
    later = [[] for _ in range(graph.n)]
    for e, (i, j) in enumerate(graph.edges, graph.n):
        later[i].append((1 << j, e))
    return tuple(map(tuple, later))


def bundle_sums(graph: ValueGraph, w: Sequence[Optional[int]]) -> list[Optional[int]]:
    """<w, a_S> for every bundle bitmask S of the graph, by the subset
    recurrence t[S] = t[S - i] + w_i + sum of w_ij over j in S - i with ij
    an edge, where i is the lowest vertex of S. A None entry stands for
    -inf: every bundle touching it is None."""
    n = graph.n
    later = [[(bit, w[e]) for bit, e in row] for row in _later_edges(graph)]
    t: list[Optional[int]] = [0] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        i = low.bit_length() - 1
        x, wi = t[S ^ low], w[i]
        x = None if x is None or wi is None else x + wi
        for bit, wij in later[i]:
            if x is None:
                break
            if S & bit:
                x = None if wij is None else x + wij
        t[S] = x
    return t


def dual_table(graph: ValueGraph, Y: Sequence[int], M: int) -> tuple[int, list[int]]:
    """The table of the price whose entries are the integers Y over the
    scale M > 0, padded with zeros to the graph's d entries, as
    PriceVector.table gives it: (D, t) with D the least common
    denominator of those entries, M over gcd(M, *Y), and t[mask] D times
    the price of the bundle with that bitmask. No Fraction is formed."""
    g = gcd(M, *Y)
    P = [x // g for x in Y]
    P += [0] * (graph.d - len(P))
    return M // g, bundle_sums(graph, P)


def shift(v: Valuation, c: Sequence[Union[Fraction, int, str]]) -> Valuation:
    """Add a finite vector to the weights entrywise; NEG_INF entries stay."""
    if len(c) != v.graph.d:
        raise ValueError(f"expected {v.graph.d} entries, got {len(c)}")
    delta = [as_fraction(x) for x in c]
    return Valuation(
        v.graph,
        tuple(
            w + delta[k] if is_finite(w) else NEG_INF
            for k, w in enumerate(v.weights)
        ),
    )


@dataclass(frozen=True, slots=True)
class PriceVector:
    """Anonymous quadratic price vector; ``linear_only`` pins all edge
    entries to zero (classical per-item pricing)."""

    graph: ValueGraph
    entries: tuple[Fraction, ...]
    linear_only: bool = False

    def __post_init__(self):
        if len(self.entries) != self.graph.d:
            raise ValueError(
                f"expected {self.graph.d} entries, got {len(self.entries)}"
            )
        norm = tuple(as_fraction(x) for x in self.entries)
        object.__setattr__(self, "entries", norm)
        if self.linear_only and any(norm[self.graph.n :]):
            raise ValueError("linear_only price has nonzero edge entries")

    @classmethod
    def zero(cls, graph: ValueGraph, linear_only: bool = False) -> "PriceVector":
        return cls(graph, (Fraction(0),) * graph.d, linear_only)

    def scaled(self) -> tuple[int, list[int]]:
        """(D, P): D is the common denominator of the entries and P the
        integers D times each entry, in coordinate order."""
        return scaled_ints(self.entries)

    def dot(self, a: GPoint) -> Fraction:
        """<p, a>, summed as integers over the common denominator."""
        D, P = self.scaled()
        return Fraction(sum(x * c for x, c in zip(P, a.coords) if c), D)

    def of_bundle(self, S: Iterable[int]) -> Fraction:
        return self.dot(char_vector(S, self.graph))

    def table(self) -> tuple[int, list[int]]:
        """(D, t): D is the common denominator of the entries and t[mask]
        is D times the price of the bundle with that bitmask. Built per
        call; a price keeps no table."""
        D, P = self.scaled()
        return dual_table(self.graph, P, D)
