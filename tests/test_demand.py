import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gpauction.demand import (
    candidate_points,
    demand_set,
    max_welfare,
    seller_demand,
    verify_ce,
    verify_pe,
)
from gpauction.model import (
    GPoint,
    NEG_INF,
    PriceVector,
    Valuation,
    ValueGraph,
    aggregate,
    char_vector,
    is_finite,
    shift,
    value,
)
from gpauction import demand, model, polytope
from gpauction.caps import CapExceededError
from gpauction.polytope import enumerate_aggregates, enumerate_decompositions, vertices_P
from gpauction.pricing import FOUND, NO_POINT_FOUND, optimal_ce
from gpauction.instances import corpus_instance

from .oracle import alloc_key, reference_best_splits
from .strategies import graphs, small_fractions, thinned, valuations

K3 = ValueGraph.complete(3)
CUTLERY = corpus_instance("cutlery").valuations
SHIFTED = corpus_instance("cutlery-shifted").valuations
P_EDGES = PriceVector(K3, (F(0), F(0), F(0), F(1), F(1), F(1)))
P_SHIFTED = PriceVector(K3, (F(3), F(3), F(1), F(0), F(0), F(0)))

A, B, C = frozenset({0}), frozenset({1}), frozenset({2})
AB, ABC = frozenset({0, 1}), frozenset({0, 1, 2})
EMPTY = frozenset()


def brute_force_demand(v, p):
    """Independent oracle: scan all bundles directly."""
    n = v.graph.n
    best, best_bundles = None, set()
    for mask in range(1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        val = value(v, S)
        if val == NEG_INF:
            continue
        u = val - p.of_bundle(S)
        if best is None or u > best:
            best, best_bundles = u, {S}
        elif u == best:
            best_bundles.add(S)
    return best, best_bundles


class TestDemandSet:
    def test_cutlery_agent1_at_edge_price(self):
        ds = demand_set(CUTLERY[0], P_EDGES)
        expected_best, expected = brute_force_demand(CUTLERY[0], P_EDGES)
        assert ds.utility_value == expected_best == 0
        assert ds.bundles == expected == {EMPTY, A, B, C, AB}

    def test_zero_price_demands_full_support(self):
        v = Valuation(K3, (F(1), F(0), F(2), F(0), F(1), F(0)))
        ds = demand_set(v, PriceVector.zero(K3))
        assert ABC in ds.bundles

    def test_shifted_agent1_demands_everything_bundle(self):
        ds = demand_set(SHIFTED[0], P_SHIFTED)
        assert ABC in ds.bundles

    def test_neg_inf_items_never_demanded(self):
        v = Valuation(K3, (F(5), NEG_INF, F(1), F(0), F(0), F(0)))
        ds = demand_set(v, PriceVector.zero(K3))
        assert all(1 not in S for S in ds.bundles)

    def test_support_cap(self):
        from gpauction.caps import CapExceededError

        g = ValueGraph.complete(7)
        with pytest.raises(CapExceededError):
            demand_set(Valuation.zero(g), PriceVector.zero(g))

    @pytest.mark.parametrize("call", ["max_welfare", "verify_ce", "demand_set"])
    def test_caps_checked_before_any_table(self, monkeypatch, call):
        """An instance over the caps raises before a valuation or price
        table (2^n entries) is built."""
        from gpauction import model
        from gpauction.caps import CapExceededError

        built = []
        monkeypatch.setattr(model, "bundle_sums", lambda *args: built.append(args))
        g = ValueGraph.complete(20)
        v, p = Valuation.zero(g), PriceVector.zero(g)
        with pytest.raises(CapExceededError):
            if call == "max_welfare":
                max_welfare([v], GPoint.zero(g))
            elif call == "verify_ce":
                verify_ce([v], (EMPTY,), p)
            else:
                demand_set(v, p)
        assert built == []

    def test_cap_is_on_the_graph_not_the_support(self):
        """The valuation and price tables span all 2^n bundles of the
        graph, so a small support does not lift the cap on n."""
        from gpauction.caps import Caps, CapExceededError

        g = ValueGraph.complete(7)
        weights = (F(1), F(1)) + (NEG_INF,) * 5 + (F(1),) * len(g.edges)
        v = Valuation(g, weights)
        assert v.support == {0, 1}
        with pytest.raises(CapExceededError):
            demand_set(v, PriceVector.zero(g))
        ds = demand_set(v, PriceVector.zero(g), Caps(max_n=7))
        assert ds.bundles == {frozenset({0, 1})} and ds.utility_value == 3

    def test_empty_bundle_when_utility_zero(self):
        v = Valuation(K3, (F(-1),) * 6)
        ds = demand_set(v, PriceVector.zero(K3))
        assert ds.utility_value == 0
        assert EMPTY in ds.bundles

    @given(graphs(max_n=4), st.data())
    @settings(max_examples=60)
    def test_matches_brute_force(self, g, data):
        v = data.draw(valuations(g, allow_neg_inf=True))
        p = PriceVector(g, tuple(data.draw(small_fractions()) for _ in range(g.d)))
        ds = demand_set(v, p)
        best, bundles = brute_force_demand(v, p)
        assert ds.utility_value == best
        assert ds.bundles == bundles

    @given(graphs(max_n=4), st.data())
    @settings(max_examples=60)
    def test_shift_invariance(self, g, data):
        v = data.draw(valuations(g, allow_neg_inf=True))
        p = tuple(data.draw(small_fractions()) for _ in range(g.d))
        c = tuple(data.draw(small_fractions()) for _ in range(g.d))
        before = demand_set(v, PriceVector(g, p))
        after = demand_set(
            shift(v, c), PriceVector(g, tuple(a + b for a, b in zip(p, c)))
        )
        assert before.bundles == after.bundles


class TestMaxWelfare:
    def test_cutlery_full_point(self):
        w, alloc = max_welfare(CUTLERY, GPoint(K3, (1, 1, 1, 1, 1, 1)))
        assert w == 1
        assert sorted(map(len, alloc)) == [0, 0, 3]

    def test_single_agent_char_vector(self):
        v = Valuation(K3, (F(2), F(0), F(1), F(-1), F(0), F(4)))
        a = char_vector([0, 2], K3)
        w, alloc = max_welfare([v], a)
        assert w == value(v, {0, 2}) == 3
        assert alloc == (frozenset({0, 2}),)

    def test_cutlery_singletons_point(self):
        w, alloc = max_welfare(CUTLERY, GPoint(K3, (1, 1, 1, 0, 0, 0)))
        assert w == 0

    def test_non_decomposable_marker(self):
        K4 = ValueGraph.complete(4)
        vs = [Valuation.zero(K4)] * 4
        w, alloc = max_welfare(vs, GPoint(K4, (2, 2, 2, 2, 1, 1, 1, 1, 1, 1)))
        assert w == NEG_INF and alloc is None

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_witness_attains_and_dominates(self, data):
        """The witness is the lexicographically least alloc_key among the
        maximizers over every permutation of every decomposition, -inf
        totals included."""
        g = ValueGraph.complete(data.draw(st.integers(1, 3)))
        m = data.draw(st.integers(1, 5))
        vs = [data.draw(valuations(g, allow_neg_inf=True)) for _ in range(m)]
        total = GPoint.zero(g)
        for _ in range(m):
            total = total + data.draw(st.sampled_from(vertices_P(g)))
        assert max_welfare(vs, total) == brute_force_welfare(vs, total)

    def test_all_neg_inf_witness(self):
        """Every split hits a -inf weight: the witness is still the least
        allocation by alloc_key."""
        v = Valuation(K3, (NEG_INF,) * 3 + (F(0),) * 3)
        a = GPoint(K3, (1, 1, 1, 1, 0, 0))
        w, alloc = max_welfare([v, v], a)
        assert (w, alloc) == brute_force_welfare([v, v], a)
        assert w == NEG_INF and alloc == (frozenset({0, 1}), frozenset({2}))


POOL = (EMPTY, EMPTY, A, B, AB, C, ABC)  # the empty bundle drawn twice as often


def scan_assign(parts, tables):
    """The permutation scan: every matching of the parts to the agents,
    a None entry making its total -inf; the best total and the least
    maximizer by alloc_key."""
    options = []
    for perm in set(itertools.permutations(parts)):
        vals = [t[sum(1 << i for i in S)] for t, S in zip(tables, perm)]
        options.append((NEG_INF if None in vals else sum(vals), perm))
    best = max(total for total, _ in options)
    return best, min((p for t, p in options if t == best), key=alloc_key)


def mask(S):
    return sum(1 << i for i in S)


def mask_assign(parts, tables):
    """_assign on the parts as the search yields them (bitmasks in
    decreasing order), with the witness read back as bundles."""
    masks = sorted(map(mask, parts), reverse=True)
    low, cols = demand._columns(tables)
    welfare, alloc = demand._assign(masks, cols, demand._ranks(3), low)
    bundles = polytope.bundle_table(K3)
    return welfare, tuple(bundles[s] for s in alloc)


class TestAssign:
    """The matching DP over a split's distinct bundles against the scan."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_permutation_scan(self, data):
        m = data.draw(st.integers(1, 6))
        parts = tuple(data.draw(st.lists(st.sampled_from(POOL), min_size=m, max_size=m)))
        entry = st.none() | st.integers(-4, 4)
        tables = [data.draw(st.lists(entry, min_size=8, max_size=8)) for _ in range(m)]
        got = mask_assign(parts, tables)
        assert got == scan_assign(parts, tables)
        if got[0] == NEG_INF:
            assert got[0] is NEG_INF

    def test_all_none_is_neg_inf_in_key_order(self):
        parts = (ABC, AB, EMPTY, C, EMPTY)
        welfare, alloc = mask_assign(parts, [[None] * 8] * 5)
        assert welfare is NEG_INF
        assert alloc == (EMPTY, EMPTY, AB, ABC, C)


def brute_force_welfare(vs, a):
    """The permutation scan: every ordering of every decomposition."""
    options = []
    for _, masks in enumerate_decompositions(a, len(vs)):
        parts = as_bundles(a.graph, masks)
        for perm in set(itertools.permutations(parts)):
            vals = [value(v, S) for v, S in zip(vs, perm)]
            total = sum(vals) if all(map(is_finite, vals)) else NEG_INF
            options.append((total, perm))
    best = max(total for total, _ in options)
    return best, min((p for t, p in options if t == best), key=alloc_key)


@st.composite
def fold_cases(draw, allow_neg_inf=False):
    """(valuations, supply, m) with small weights of denominators 1-3, so
    that matchings and splits tie often, over a complete graph or one
    keeping about 80% of its edges."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4 if n < 4 else 3))
    g = thinned(draw, ValueGraph.complete(n))
    weight = st.builds(F, st.integers(-2, 2), st.integers(1, 3))
    if allow_neg_inf:
        weight = weight | st.just(NEG_INF)
    vs = [
        Valuation(g, tuple(draw(weight) if k < n else draw(weight.filter(is_finite))
                           for k in range(g.d)))
        for _ in range(m)
    ]
    supply = tuple(draw(st.integers(0, min(m, 2))) for _ in range(n))
    return vs, supply, m


def as_bundles(g, masks):
    bundles = polytope.bundle_table(g)
    return tuple(bundles[s] for s in masks)


class TestMaskFold:
    """The fold on bitmasks against the fold on bundles of tests/oracle.py:
    the same (welfare, allocation) for every point."""

    @given(fold_cases(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_bundle_fold(self, case, top_only):
        vs, supply, m = case
        g = vs[0].graph
        items = list(enumerate_aggregates(g, supply, m))
        scale, best = demand._best_splits(vs, items, top_only=top_only)
        ref = reference_best_splits(
            vs, [(c, as_bundles(g, masks)) for c, masks in items], top_only=top_only
        )
        got = {c: (w, as_bundles(g, alloc)) for c, (w, alloc) in best.items()}
        assert (scale, got) == ref

    @given(fold_cases(allow_neg_inf=True))
    @settings(max_examples=100, deadline=None)
    def test_max_welfare_matches_the_bundle_fold(self, case):
        vs, supply, m = case
        g = vs[0].graph
        for c in sorted({c for c, _ in enumerate_aggregates(g, supply, m)})[:4]:
            a = GPoint(g, c)
            scale, ref = reference_best_splits(
                vs, [(c, as_bundles(g, masks)) for _, masks in enumerate_decompositions(a, m)]
            )
            welfare, alloc = ref[c]
            expected = (welfare if welfare == NEG_INF else F(welfare, scale), alloc)
            assert max_welfare(vs, a) == expected


class TestVerifyCE:
    def test_singletons_pass(self):
        assert verify_ce(CUTLERY, (A, B, C), P_EDGES).ok

    def test_pair_allocation_passes_with_revenue_one(self):
        verdict = verify_ce(CUTLERY, (AB, C, EMPTY), P_EDGES)
        assert verdict.ok and verdict.revenue == 1

    def test_all_to_one_fails_with_witness(self):
        verdict = verify_ce(CUTLERY, (ABC, EMPTY, EMPTY), P_EDGES)
        assert not verdict.ok
        (w,) = verdict.failures
        assert w.agent == 0 and w.assigned == ABC
        assert w.assigned_utility == -2
        assert w.better_utility == 0

    def test_one_price_table_per_call(self, monkeypatch):
        """The price is tabulated once per verdict, not once per agent,
        and an assigned bundle of value -inf fails with utility -inf."""
        calls = []
        table = PriceVector.table

        def counted(p):
            calls.append(p)
            return table(p)

        monkeypatch.setattr(PriceVector, "table", counted)
        v = Valuation(K3, (F(1), NEG_INF, F(1), F(0), F(0), F(0)))
        verdict = verify_ce((*CUTLERY[:2], v), (AB, EMPTY, B), P_EDGES)
        assert len(calls) == 1
        (w,) = verdict.failures
        assert w.agent == 2 and w.assigned_utility == NEG_INF
        assert w.better == A and w.better_utility == 1  # A, C and AC tie at 1

    def test_demand_level_equivalence(self):
        # pass iff each agent's utility equals their demand-set optimum
        for alloc in [(A, B, C), (AB, C, EMPTY), (ABC, EMPTY, EMPTY)]:
            verdict = verify_ce(CUTLERY, alloc, P_EDGES)
            expected = all(
                value(v, S) - P_EDGES.of_bundle(S) == demand_set(v, P_EDGES).utility_value
                for v, S in zip(CUTLERY, alloc)
            )
            assert verdict.ok == expected


class TestSellerDemand:
    def test_cutlery_edge_price(self):
        sd = seller_demand(P_EDGES, (1, 1, 1), 3)
        assert sd == {GPoint(K3, (1, 1, 1, 1, 1, 1))}
        assert P_EDGES.dot(next(iter(sd))) == 3

    def test_zero_price_all_tie(self):
        sd = seller_demand(PriceVector.zero(K3), (1, 1, 1), 3)
        decomposable = {
            a for a in candidate_points(K3, (1, 1, 1))
            if a.coords != (1, 1, 1, 1, 1, 0)
            and a.coords != (1, 1, 1, 1, 0, 1)
            and a.coords != (1, 1, 1, 0, 1, 1)
        }
        assert sd == decomposable

    @given(graphs(max_n=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_filtered_box(self, g, data):
        m = data.draw(st.integers(1, 4 if g.n < 4 else 3))
        supply = tuple(data.draw(st.integers(0, m)) for _ in range(g.n))
        p = PriceVector(g, tuple(data.draw(small_fractions(-2, 2)) for _ in range(g.d)))
        box = [
            a for a in candidate_points(g, supply)
            if next(enumerate_decompositions(a, m), None) is not None
        ]
        if not box:
            with pytest.raises(ValueError, match="no decomposable"):
                seller_demand(p, supply, m)
            return
        best = max(p.dot(a) for a in box)
        assert seller_demand(p, supply, m) == {a for a in box if p.dot(a) == best}

    def test_shifted_price_revenue_seven(self):
        sd = seller_demand(P_SHIFTED, (1, 1, 1), 3)
        best = P_SHIFTED.dot(next(iter(sd)))
        assert best == 7
        assert GPoint(K3, (1, 1, 1, 1, 1, 1)) in sd


def folded_seller_demand(p, supply, m):
    """Reference: every distinct point of the unpriced aggregate search,
    keeping those of maximal <p, a>."""
    points = {GPoint(p.graph, c) for c, _ in enumerate_aggregates(p.graph, supply, m)}
    best = max(p.dot(a) for a in points)
    return {a for a in points if p.dot(a) == best}


@st.composite
def seller_cases(draw, edge_prices):
    """(price, supply, m) on a graph of up to 5 vertices, m up to 5, with
    the edge entries drawn by edge_prices; the supply stays small enough
    for the unpriced search to list every split."""
    g = draw(graphs(max_n=5))
    m = draw(st.integers(1, 5))
    supply = tuple(draw(st.integers(0, min(m, 2 if g.n > 3 else 3))) for _ in range(g.n))
    vertex = [draw(small_fractions(-3, 3)) for _ in range(g.n)]
    edges = [draw(edge_prices) for _ in g.edges]
    return PriceVector(g, tuple(vertex + edges)), supply, m


INTEGERS = st.integers(-3, 3).map(F)


class TestBoundedSellerSearch:
    """seller_demand prunes the multiset search by a bound on the revenue
    still to come; it must keep exactly the argmax of the unpriced fold."""

    @given(seller_cases(INTEGERS))
    @settings(max_examples=60, deadline=None)
    def test_random_prices(self, case):
        assert seller_demand(*case) == folded_seller_demand(*case)

    @given(seller_cases(st.just(F(0))))
    @settings(max_examples=30, deadline=None)
    def test_zero_edge_prices_keep_every_point(self, case):
        p, supply, m = case
        points = {GPoint(p.graph, c) for c, _ in enumerate_aggregates(p.graph, supply, m)}
        assert seller_demand(p, supply, m) == points

    @given(seller_cases(st.integers(-3, -1).map(F)))
    @settings(max_examples=40, deadline=None)
    def test_negative_edge_prices(self, case):
        assert seller_demand(*case) == folded_seller_demand(*case)

    @given(seller_cases(small_fractions(-2, 2)))
    @settings(max_examples=40, deadline=None)
    def test_fractional_prices(self, case):
        p, supply, m = case
        # small_fractions has denominators up to 6, so adding 1/7 to one
        # entry makes the common denominator D a multiple of 7.
        entries = (p.entries[0] + F(1, 7),) + p.entries[1:]
        p = PriceVector(p.graph, entries)
        assert p.table()[0] % 7 == 0
        assert seller_demand(p, supply, m) == folded_seller_demand(p, supply, m)

    def test_bound_prunes_nodes(self, monkeypatch):
        g = ValueGraph.complete(5)
        rng = random.Random(3)
        p = PriceVector(g, tuple(F(rng.randint(-3, 3)) for _ in range(g.d)))
        supply = (2,) * 5
        calls = counting_nodes(monkeypatch)
        expected = folded_seller_demand(p, supply, 5)
        unpriced = len(calls)
        calls.clear()
        assert seller_demand(p, supply, 5) == expected
        assert len(calls) < unpriced


EDGE_PRICES = {
    "random": INTEGERS,
    "zero": st.just(F(0)),
    "negative": st.integers(-3, -1).map(F),
    "fractional": small_fractions(-2, 2),
}


def counting_nodes(monkeypatch):
    """Count the inner nodes the multiset search visits: with no pinned
    edge it calls `max` once per node that is not a leaf, in its residual
    prune `max(res) > k`, so every call of polytope's `max` is counted."""
    calls = []

    def counting_max(*args, **kwargs):
        calls.append(None)
        return max(*args, **kwargs)

    monkeypatch.setattr(polytope, "max", counting_max, raising=False)
    return calls


class TestSellerFloor:
    """With above, seller_demand keeps only the maximizers that pay
    strictly more than above, and returns nothing when none does."""

    @given(st.sampled_from(sorted(EDGE_PRICES)), st.data())
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_the_fold(self, kind, data):
        p, supply, m = data.draw(seller_cases(EDGE_PRICES[kind]))
        expected = folded_seller_demand(p, supply, m)
        best = p.dot(next(iter(expected)))
        # Revenues are multiples of 1/D: above is drawn at the best, one
        # unit below it, between two units, and at fractions around it.
        D = p.scaled()[0]
        offset = data.draw(
            st.sampled_from([F(0), F(-1, D), F(-1, 7 * D), F(1, 7 * D)]) | small_fractions(-2, 2)
        )
        above = best + offset
        sd = seller_demand(p, supply, m, above=data.draw(st.sampled_from([above, str(above)])))
        assert sd == {a for a in expected if p.dot(a) > above}

    def test_zero_edge_verify_pe_visits_one_node(self, monkeypatch):
        calls = counting_nodes(monkeypatch)
        enumerate_aggregates(K3, (1, 1, 1), 3)
        checks = len(calls)  # any call of `max` outside the search
        calls.clear()
        verdict = verify_pe(SHIFTED, (ABC, EMPTY, EMPTY), P_SHIFTED, (1, 1, 1))
        assert verdict.ok and verdict.seller_best_revenue == 7
        assert len(calls) - checks == 1
        calls.clear()
        assert len(seller_demand(P_SHIFTED, (1, 1, 1), 3)) == 5
        assert len(calls) - checks > 1

    def test_caps_and_supply_checked_before_the_price(self, monkeypatch):
        def no_search(*args, **kwargs):
            pytest.fail("read the price before checking the caps and the supply")

        monkeypatch.setattr(demand, "_splits", no_search)
        monkeypatch.setattr(PriceVector, "scaled", no_search)
        monkeypatch.setattr(PriceVector, "table", no_search)
        K7 = ValueGraph.complete(7)
        with pytest.raises(CapExceededError, match="max_n"):
            seller_demand(PriceVector.zero(K7), (1,) * 7, 1, above=0)
        with pytest.raises(CapExceededError, match="max_m"):
            seller_demand(P_SHIFTED, (1, 1, 1), 7, above=7)
        with pytest.raises(ValueError, match="supply entries"):
            seller_demand(P_SHIFTED, (1, 1), 3, above=7)
        with pytest.raises(ValueError, match="nonnegative"):
            seller_demand(P_SHIFTED, (1, -1, 0), 3)
        with pytest.raises(TypeError, match="inexact"):
            seller_demand(P_SHIFTED, (1, 1, 1), 3, above=7.0)

    def test_supply_entries_must_be_ints(self):
        with pytest.raises(ValueError, match="supply entries must be integers"):
            seller_demand(PriceVector.zero(K3), (1.5, 1, 0), 2)

    @pytest.mark.parametrize("m", [-2, 2.0])
    def test_part_count_must_be_a_nonnegative_int(self, m):
        with pytest.raises(ValueError, match=f"m={m!r} must be a nonnegative int"):
            seller_demand(PriceVector.zero(K3), (0, 0, 0), m)


class TestVerifyPE:
    def test_cutlery_ce_is_not_pe(self):
        verdict = verify_pe(CUTLERY, (AB, C, EMPTY), P_EDGES, (1, 1, 1))
        assert verdict.ce.ok and not verdict.ok
        assert verdict.revenue == 1 and verdict.seller_best_revenue == 3

    def test_shifted_pe_passes(self):
        verdict = verify_pe(SHIFTED, (ABC, EMPTY, EMPTY), P_SHIFTED, (1, 1, 1))
        assert verdict.ok and verdict.revenue == 7
        # a passing PE attains the seller optimum, so no CE at this price
        # can bring more revenue
        assert verdict.revenue == verdict.seller_best_revenue

    def test_trivial_empty_auction(self):
        v = Valuation.zero(K3)
        verdict = verify_pe([v], (EMPTY,), PriceVector.zero(K3), (0, 0, 0))
        assert verdict.ok and verdict.revenue == 0

    def test_supply_mismatch(self):
        with pytest.raises(ValueError, match="supply"):
            verify_pe(CUTLERY, (A, B, C), P_EDGES, (1, 1, 0))

    def test_supply_entries_must_be_ints(self):
        with pytest.raises(ValueError, match="supply entries must be integers"):
            verify_pe(SHIFTED, (ABC, EMPTY, EMPTY), P_SHIFTED, (1.0, 1, 1))

    def test_pe_implies_ce(self):
        verdict = verify_pe(SHIFTED, (ABC, EMPTY, EMPTY), P_SHIFTED, (1, 1, 1))
        assert verdict.ok and verdict.ce.ok

    def test_one_aggregate_and_one_price_table(self, monkeypatch):
        """verify_pe builds the sold aggregate once and tabulates its price
        once, in verify_ce; the seller search reads the price's integers
        and bounds itself by the CE's revenue."""
        calls = {"aggregate": [], "bundle_sums": []}
        for name in calls:
            real = getattr(model, name)

            def spy(*args, real=real, name=name):
                calls[name].append(args)
                return real(*args)

            for modname, mod in list(sys.modules.items()):
                if modname.startswith("gpauction") and getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, spy)
        for vs, alloc, p, ok in (
            (SHIFTED, (ABC, EMPTY, EMPTY), P_SHIFTED, True),
            (CUTLERY, (AB, C, EMPTY), P_EDGES, False),
        ):
            for v in vs:
                v.table  # the valuations' tables are cached on first use
            for found in calls.values():
                found.clear()
            verdict = verify_pe(vs, alloc, p, (1, 1, 1))
            assert verdict.ok == ok and verdict.revenue == p.dot(aggregate(K3, alloc))
            assert len(calls["aggregate"]) == 1
            assert len(calls["bundle_sums"]) == 1

    def test_item_off_the_graph_is_rejected_first(self):
        """verify_ce rejects an item off the price's graph before it
        compares the valuations' graphs."""
        vs = [Valuation.zero(ValueGraph.complete(4))] * 3
        with pytest.raises(ValueError, match="out of range"):
            verify_ce(vs, (frozenset({3}), EMPTY, EMPTY), P_EDGES)
        with pytest.raises(ValueError, match="different graphs"):
            verify_ce(vs, (ABC, EMPTY, EMPTY), P_EDGES)


class TestWalrasian:
    def test_cutlery_has_none(self):
        assert optimal_ce(CUTLERY, (1, 1, 1), walrasian=True).status == NO_POINT_FOUND

    def test_shifted_has_one(self):
        found = optimal_ce(SHIFTED, (1, 1, 1), walrasian=True)
        assert found.status == FOUND
        price, alloc = found.price, found.allocation
        assert price.linear_only
        assert verify_ce(SHIFTED, alloc, price).ok

    def test_single_additive_agent(self):
        v = Valuation(K3, (F(2), F(3), F(1), F(0), F(0), F(0)))
        found = optimal_ce([v], (1, 1, 1), walrasian=True)
        assert found.status == FOUND
        price, alloc = found.price, found.allocation
        assert verify_ce([v], alloc, price).ok
        assert price.dot(char_vector([0, 1, 2], K3)) == 6
