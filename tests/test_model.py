import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gpauction.model import (
    NEG_INF,
    GPoint,
    PriceVector,
    Valuation,
    ValueGraph,
    aggregate,
    as_fraction,
    char_vector,
    common_tables,
    dual_table,
    is_finite,
    project,
    shift,
)
from gpauction.demand import seller_demand
from gpauction.instances import corpus_instance

from .oracle import value
from .strategies import bundles, graphs, small_fractions

K3 = ValueGraph.complete(3)
K4 = ValueGraph.complete(4)
HOUSE = ValueGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (3, 4)])


class TestValueGraph:
    def test_dimension(self):
        assert K3.d == 6
        assert K4.d == 10
        assert HOUSE.d == 11

    def test_complete_edge_count(self):
        for n in range(1, 7):
            g = ValueGraph.complete(n)
            assert len(g.edges) == n * (n - 1) // 2

    def test_canonical_edge_order(self):
        assert K3.edges == ((0, 1), (0, 2), (1, 2))
        assert K3.edge_coord(2, 1) == 5

    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            ValueGraph(3, ((1, 1),))
        with pytest.raises(ValueError):
            ValueGraph(3, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            ValueGraph(2, ((0, 2),))


class TestCharVector:
    def test_empty_bundle_is_zero(self):
        assert char_vector([], K3) == GPoint.zero(K3)

    def test_k3_pair(self):
        # price indexing of the triangle examples: edges AB, AC, BC
        assert char_vector([0, 1], K3).coords == (1, 1, 0, 1, 0, 0)

    def test_house_pair(self):
        # direct evaluation: only the v1-v5 edge is internal to {v1, v5}
        a = char_vector([0, 4], HOUSE)
        assert a.coords[:5] == (1, 0, 0, 0, 1)
        assert a.edge(0, 4) == 1
        assert sum(a.coords[5:]) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            char_vector([3], K3)

    @given(graphs(), st.data())
    def test_injective_and_projects_to_indicator(self, g, data):
        S = data.draw(bundles(g.n))
        T = data.draw(bundles(g.n))
        aS, aT = char_vector(S, g), char_vector(T, g)
        assert (aS == aT) == (S == T)
        assert project(aS) == tuple(1 if i in S else 0 for i in range(g.n))
        assert aS.is_characteristic()
        assert aS.as_bundle() == S


class TestProject:
    def test_full_triangle(self):
        assert project(GPoint(K3, (1, 1, 1, 0, 0, 0))) == (1, 1, 1)

    def test_zero(self):
        assert project(GPoint.zero(K3)) == (0, 0, 0)

    def test_k4_double_point(self):
        assert project(GPoint(K4, (2, 2, 2, 2, 1, 1, 1, 1, 1, 1))) == (2, 2, 2, 2)


class TestValue:
    def test_cutlery_pair(self):
        v1 = corpus_instance("cutlery").valuations[0]
        assert value(v1, {0, 1}) == 1

    def test_empty_bundle(self):
        v1 = corpus_instance("cutlery").valuations[0]
        assert value(v1, set()) == 0

    def test_neg_inf_vertex(self):
        v = Valuation(K3, (NEG_INF, F(1), F(1), F(0), F(0), F(0)))
        assert value(v, {0}) == NEG_INF
        assert value(v, {0, 1}) == NEG_INF
        assert value(v, {1, 2}) == 2

    def test_neg_inf_edge(self):
        v = Valuation(K3, (F(1), F(1), F(1), NEG_INF, F(0), F(0)))
        assert value(v, {0, 1}) == NEG_INF
        assert value(v, {0}) == 1


def test_is_finite():
    assert is_finite(F(-7, 3)) and is_finite(F(0))
    assert not is_finite(NEG_INF)
    other = float("-inf")  # equal to NEG_INF, but another object
    assert other is not NEG_INF and not is_finite(other)


def mixed_weights(d: int):
    """Weights with mixed denominators, -inf on vertices and edges alike."""
    w = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    return st.lists(w | st.just(NEG_INF), min_size=d, max_size=d)


def bundle_of(mask: int, n: int) -> frozenset:
    return frozenset(i for i in range(n) if mask >> i & 1)


def assert_scaled_values(v: Valuation, L: int, t) -> None:
    """t[mask] is L * value(v, bundle of mask) on every mask, None for -inf."""
    assert len(t) == 1 << v.graph.n
    for mask in range(1 << v.graph.n):
        ref = value(v, bundle_of(mask, v.graph.n))
        assert (t[mask] is None) if ref == NEG_INF else t[mask] == L * ref


class TestTables:
    @given(graphs(), st.data())
    def test_valuation_table_is_scaled_value(self, g, data):
        v = Valuation(g, tuple(data.draw(mixed_weights(g.d))))
        L, t = v.table
        assert L == math.lcm(*(w.denominator for w in v.weights if is_finite(w)))
        assert_scaled_values(v, L, t)

    def test_table_is_built_once(self):
        v = Valuation(K3, (F(1, 2), NEG_INF, F(1), F(1, 3), F(0), F(2)))
        assert v.table is v.table

    @given(graphs(max_n=4), st.data())
    def test_common_tables_share_one_scale(self, g, data):
        vs = [Valuation(g, tuple(data.draw(mixed_weights(g.d)))) for _ in range(3)]
        L, tables = common_tables(vs)
        for v, t in zip(vs, tables):
            assert_scaled_values(v, L, t)

    @given(graphs(), st.data())
    def test_price_table_is_scaled_price(self, g, data):
        """Also the table dual_table gives for integer duals Y over a scale
        M: the price Y / M, padded with zero edge prices when Y has n
        entries. All-zero Y is drawn too: its table is (1, zeros)."""
        k = data.draw(st.sampled_from((g.n, g.d)))
        entry = st.just(0) if data.draw(st.booleans()) else st.integers(-60, 60)
        Y = [data.draw(entry) for _ in range(k)]
        M = data.draw(st.integers(1, 360))
        p = PriceVector(g, tuple(F(y, M) for y in Y) + (F(0),) * (g.d - k))
        D, t = p.table()
        assert D == math.lcm(*(e.denominator for e in p.entries))
        for mask in range(1 << g.n):
            assert t[mask] == D * p.of_bundle(bundle_of(mask, g.n))
        assert dual_table(g, Y, M) == (D, t)


class TestShift:
    def test_cutlery_plus_ones(self):
        v1 = corpus_instance("cutlery").valuations[0]
        shifted = shift(v1, [1] * 6)
        assert shifted.weights == (F(1), F(1), F(1), F(2), F(1), F(1))

    def test_zero_shift_is_identity(self):
        v1 = corpus_instance("cutlery").valuations[0]
        assert shift(v1, [0] * 6) == v1

    def test_shift_then_unshift(self):
        v = Valuation(K3, (NEG_INF, F(2), F(-1), F(0), F("1/2"), F(3)))
        c = [F(1), F(-2), F("1/3"), F(0), F(5), F(-1)]
        back = shift(shift(v, c), [-x for x in c])
        assert back == v
        assert not is_finite(back.weights[0])

    @given(graphs(), st.data())
    def test_value_shift_identity(self, g, data):
        v = Valuation(
            g, tuple(data.draw(small_fractions()) for _ in range(g.d))
        )
        c = [data.draw(small_fractions()) for _ in range(g.d)]
        S = data.draw(bundles(g.n))
        a = char_vector(S, g)
        lhs = value(shift(v, c), S)
        rhs = value(v, S) + sum(ck * xk for ck, xk in zip(c, a.coords))
        assert lhs == rhs


class TestAsFraction:
    """Strings passed to the API follow the grammar of instance files:
    integers, fractions and plain decimals, nothing Fraction() alone would
    also take."""

    # "1e3000000" is the exponent Fraction() would spend seconds on, building
    # a 3-million-digit integer; the grammar refuses it before any int is built.
    @pytest.mark.parametrize(
        "s", ["1e3", "1e3000000", " 1", "1_0", "\u0661", "+-1", "1.", "", "-inf"]
    )
    def test_outside_the_grammar(self, s):
        with pytest.raises(ValueError) as exc:
            as_fraction(s)
        assert str(exc.value) == f"{s!r} is not an exact rational"

    def test_zero_denominator(self):
        with pytest.raises(ValueError) as exc:
            as_fraction("1/0")
        assert str(exc.value) == "cannot parse rational '1/0'"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no integer digit limit",
    )
    @pytest.mark.parametrize("form", ["{}", "1/{}", "0.{}", "{}.5"])
    def test_past_the_digit_limit(self, form):
        s = form.format("9" * (sys.get_int_max_str_digits() + 1))
        with pytest.raises(ValueError, match="cannot parse rational"):
            as_fraction(s)

    def test_ints_and_fractions(self):
        half = F(1, 2)
        assert as_fraction(half) is half
        assert as_fraction(3) is as_fraction("3") and type(as_fraction(3)) is F
        assert as_fraction(-10**30) == -10**30

    @pytest.mark.parametrize("x", [0.5, True])
    def test_inexact_values(self, x):
        with pytest.raises(TypeError, match="inexact"):
            as_fraction(x)

    def test_every_api_surface_reads_the_grammar(self):
        v = Valuation.zero(K3)
        with pytest.raises(ValueError, match="'1e3' is not an exact rational"):
            PriceVector(K3, ("1e3",) + (0,) * 5)
        with pytest.raises(ValueError, match="' 1' is not an exact rational"):
            Valuation(K3, (" 1",) + (0,) * 5)
        with pytest.raises(ValueError, match="'1_0' is not an exact rational"):
            shift(v, ["1_0"] + [0] * 5)
        with pytest.raises(ValueError, match="'1e3' is not an exact rational"):
            seller_demand(PriceVector.zero(K3), (1, 1, 1), 3, above="1e3")
        assert PriceVector(K3, ("1/2", "-3", "0.25", 0, 0, 0)).entries[:3] == (
            F(1, 2), F(-3), F(1, 4)
        )


class TestPriceVector:
    def test_linear_only_rejects_edge_entries(self):
        with pytest.raises(ValueError):
            PriceVector(K3, (F(1),) * 6, linear_only=True)
        p = PriceVector(K3, (F(1), F(2), F(3), F(0), F(0), F(0)), linear_only=True)
        assert p.of_bundle({0, 1}) == 3

    def test_quadratic_bundle_price(self):
        p = PriceVector(K3, (F(0), F(0), F(0), F(1), F(1), F(1)))
        assert p.of_bundle({0, 1, 2}) == 3
        assert p.of_bundle({2}) == 0


class TestAllocation:
    def test_aggregate(self):
        alloc = (frozenset({0, 1}), frozenset({2}), frozenset())
        assert aggregate(K3, alloc).coords == (1, 1, 1, 1, 0, 0)

    def test_aggregate_vertex_bound(self):
        alloc = (frozenset({0}), frozenset({0}), frozenset({0}))
        agg = aggregate(K3, alloc)
        assert project(agg) == (3, 0, 0)

    @given(graphs(), st.data())
    def test_aggregate_sums_char_vectors(self, g, data):
        alloc = tuple(data.draw(st.lists(bundles(g.n), max_size=6)))
        total = GPoint.zero(g)
        for S in alloc:
            total = total + char_vector(S, g)
        assert aggregate(g, alloc) == total

    def test_aggregate_counts_a_repeated_item_once(self):
        """As bundle_mask and verify_ce read it: a bundle is a set."""
        assert aggregate(K3, ([0, 0, 1], [2])).coords == (1, 1, 1, 1, 0, 0)

    @pytest.mark.parametrize("item", [3, -1])
    def test_aggregate_rejects_item_off_the_graph(self, item):
        alloc = (frozenset({0, 1}), frozenset({item}))
        with pytest.raises(ValueError, match="out of range"):
            aggregate(K3, alloc)


K2 = ValueGraph.complete(2)


class TestConstructorGuards:
    """Each constructor refuses input of the wrong shape with its own
    message, so a dropped check fails here and not somewhere downstream."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ValueGraph(0, ()), "at least one vertex"),
            (lambda: GPoint(K3, (1, 1, 1)), "expected 6 coordinates, got 3"),
            (lambda: GPoint(K3, (1,) * 7), "expected 6 coordinates, got 7"),
            (lambda: GPoint(K2, (1, 1, 1.0)), "coordinates must be integers"),
            (lambda: GPoint(K2, (1, F(1), 1)), "coordinates must be integers"),
            (lambda: GPoint(K2, (True, True, True)), "coordinates must be integers"),
            (lambda: GPoint.zero(K3) + GPoint.zero(ValueGraph(3, ())), "different graphs"),
            (lambda: Valuation(K3, (F(0),) * 5), "expected 6 weights, got 5"),
            (lambda: PriceVector(K3, (F(0),) * 7), "expected 6 entries, got 7"),
            (lambda: shift(Valuation.zero(K3), (0,) * 3), "expected 6 entries, got 3"),
        ],
        ids=[
            "graph-no-vertex", "point-short", "point-long", "point-float",
            "point-fraction", "point-bool", "point-sum-two-graphs", "valuation-length",
            "price-length", "shift-length",
        ],
    )
    def test_rejects(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "coords",
        [(2, 0, 0), (1, 1, 0), (0, 1, 1)],
        ids=["count-two", "edge-missing", "edge-without-vertex"],
    )
    def test_as_bundle_needs_a_characteristic_vector(self, coords):
        with pytest.raises(ValueError, match="not a characteristic vector"):
            GPoint(K2, coords).as_bundle()
