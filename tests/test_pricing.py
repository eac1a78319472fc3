import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gpauction import demand, model, polytope, pricing
from gpauction.caps import CapExceededError, Caps
from gpauction.demand import CEVerdict, demand_set, max_welfare, verify_ce
from gpauction.linprog import INFEASIBLE, OPTIMAL, InternalError, LinearProgram, LPResult
from gpauction.model import (
    GPoint,
    NEG_INF,
    PriceVector,
    Valuation,
    ValueGraph,
    aggregate,
    char_vector,
    is_finite,
)
from gpauction.polytope import enumerate_aggregates
from gpauction.pricing import (
    CoveringError,
    FOUND,
    INFEASIBLE_AT_POINT,
    NO_POINT_FOUND,
    ce_for_covering,
    ce_price_at_point,
    check_covering,
    optimal_ce,
)
from gpauction.instances import corpus_instance

from .oracle import GE, box_optimal_ce, build_ce_lp, reference_lp_solve
from .randgen import (
    arbitrary_supply_instance,
    covering_instance,
    disjoint_clique_instance,
    random_valuation,
)
from .test_golden import golden_cases
from .strategies import bundles, graphs, small_fractions, valuations

K2 = ValueGraph.complete(2)
K3 = ValueGraph.complete(3)
K4 = ValueGraph.complete(4)
CUTLERY = corpus_instance("cutlery").valuations
SHIFTED = corpus_instance("cutlery-shifted").valuations


class TestCeLp:
    def test_cutlery_singletons_lp_admits_unit_edge_price(self):
        alloc = (frozenset({0}), frozenset({1}), frozenset({2}))
        lp = build_ce_lp(CUTLERY, alloc, GPoint(K3, (1, 1, 1, 0, 0, 0)))
        res = reference_lp_solve(lp)
        assert res.status == OPTIMAL
        p = (F(0), F(0), F(0), F(1), F(1), F(1))
        for coeffs, rel, rhs in lp.rows:
            assert rel == GE
            assert sum(c * x for c, x in zip(coeffs, p)) >= rhs

    def test_full_lp_matches_lazy_solution(self):
        point = GPoint(K3, (1, 1, 1, 1, 0, 0))
        res = ce_price_at_point(CUTLERY, point)
        lp = build_ce_lp(CUTLERY, res.allocation, point)
        assert reference_lp_solve(lp).value == res.revenue


def assert_matches_full_lp(vs, point, res, walrasian=False):
    """The result agrees with the full reference LP at the max-welfare
    split: FOUND iff that split is finite and the LP feasible, with the
    LP's optimal value as revenue."""
    welfare, alloc = max_welfare(vs, point)
    if alloc is None or not is_finite(welfare):
        assert res.status == INFEASIBLE_AT_POINT
        return "no split"
    full = reference_lp_solve(build_ce_lp(vs, alloc, point, walrasian))
    if full.status != OPTIMAL:
        assert res.status == INFEASIBLE_AT_POINT
        return "infeasible LP"
    assert res.status == FOUND
    assert (res.allocation, res.revenue) == (alloc, full.value)
    assert res.price.dot(point) == res.revenue and res.price.linear_only == walrasian
    assert verify_ce(vs, res.allocation, res.price).ok
    return "found"


class TestAgainstFullLp:
    """The column-generation dual LP against the full primal LP of
    tests/oracle.py, solved by the reference solver."""

    @given(graphs(max_n=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_point_pricing(self, g, data):
        m = data.draw(st.integers(1, 3))
        vs = [data.draw(valuations(g)) for _ in range(m)]
        point = aggregate(g, [data.draw(bundles(g.n)) for _ in range(m)])
        for walrasian in (False, True):
            res = ce_price_at_point(vs, point, walrasian=walrasian)
            assert_matches_full_lp(vs, point, res, walrasian)

    def test_infeasible_cases(self):
        # cutlery admits no Walrasian price at its optimal point
        point = GPoint(K3, (1, 1, 1, 1, 0, 0))
        res = ce_price_at_point(CUTLERY, point, walrasian=True)
        assert assert_matches_full_lp(CUTLERY, point, res, True) == "infeasible LP"
        # only agent 0 values the full K4 clique, of which two copies sell
        v0 = Valuation(K4, tuple(F(1) for _ in range(K4.d)))
        v1 = Valuation(K4, (F(2),) + (NEG_INF,) * 9)
        point = GPoint(K4, (2,) * 10)
        res = ce_for_covering([v0, v1], (2, 2, 2, 2), point)
        assert assert_matches_full_lp([v0, v1], point, res) == "no split"

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_covering_clique_bids(self, n, data):
        """-inf outside each agent's support; the point is a sum of
        bundles, each inside some agent's support, so it is compatible."""
        g = ValueGraph.complete(n)
        m = data.draw(st.integers(1, 3))
        supports = [data.draw(bundles(n)) for _ in range(m)]
        if set().union(*supports) != set(range(n)):
            supports[-1] = frozenset(range(n)) - set().union(*supports[:-1])
        def weight(inside):
            return data.draw(small_fractions()) if inside else NEG_INF

        vs = [
            Valuation(g, tuple(weight(i in sup) for i in range(n))
                      + tuple(weight(i in sup and j in sup) for i, j in g.edges))
            for sup in supports
        ]
        parts = [data.draw(st.sampled_from(supports)) for _ in range(m)]
        parts = [frozenset(data.draw(st.sets(st.sampled_from(sorted(S))))) if S else S for S in parts]
        point = aggregate(g, parts)
        supply = point.coords[:n]
        if len({s for s in supply if s}) > 1:
            return
        res = ce_for_covering(vs, supply, point)
        assert_matches_full_lp(vs, point, res)


class TestCePriceAtPoint:
    def test_cutlery_singletons_revenue_zero(self):
        res = ce_price_at_point(CUTLERY, GPoint(K3, (1, 1, 1, 0, 0, 0)))
        assert res.status == FOUND
        assert res.revenue == 0

    def test_cutlery_pair_point_revenue_one(self):
        res = ce_price_at_point(CUTLERY, GPoint(K3, (1, 1, 1, 1, 0, 0)))
        assert res.status == FOUND
        assert res.revenue == 1
        assert res.price.dot(res.point) == 1

    def test_k4_idp_point_infeasible(self):
        vs = [Valuation.zero(K4)] * 4
        res = ce_price_at_point(vs, GPoint(K4, (2, 2, 2, 2, 1, 1, 1, 1, 1, 1)))
        assert res.status == INFEASIBLE_AT_POINT

    def test_found_results_verify_exactly(self):
        res = ce_price_at_point(CUTLERY, GPoint(K3, (1, 1, 1, 1, 0, 0)))
        verdict = verify_ce(CUTLERY, res.allocation, res.price)
        assert verdict.ok and verdict.revenue == res.revenue

    def test_rejects_neg_inf_weights(self):
        vs = [Valuation(K3, (NEG_INF, F(0), F(0), F(0), F(0), F(0)))]
        with pytest.raises(ValueError, match="covering"):
            ce_price_at_point(vs, GPoint.zero(K3))

    def test_caps(self):
        g = ValueGraph.complete(7)
        with pytest.raises(CapExceededError):
            ce_price_at_point([Valuation.zero(g)], GPoint.zero(g))


def fold_points(fold, items) -> list:
    """The best split of each point among the (coords, masks) items, one
    _Fold.best call per point."""
    points: dict = {}
    for coords, masks in items:
        points.setdefault(coords, []).append((coords, masks))
    return [fold.best(splits) for splits in points.values()]


def eager_priced(vs, supply, walrasian):
    """The coordinates of the points an eager search prices, in order:
    every point folded first (in Walrasian mode the whole stream at
    once), then priced in (-welfare, coords) order, each to the end,
    until the welfare falls below the best revenue."""
    g = vs[0].graph
    items = enumerate_aggregates(g, supply, len(vs))
    fold = demand._Fold(vs)
    entries = [fold.best(items)] if walrasian else fold_points(fold, items)
    best, order = None, []
    for welfare, _, coords in sorted(entries, key=lambda e: (-e[0], e[2])):
        if best is not None and welfare < best.revenue * fold.scale:
            break
        order.append(coords)
        res = ce_price_at_point(vs, GPoint(g, coords), walrasian=walrasian)
        if res.status == FOUND and (
            best is None
            or res.revenue > best.revenue
            or (res.revenue == best.revenue and coords < best.point.coords)
        ):
            best = res
    return order


def spy_priced(monkeypatch) -> list:
    """Record the coordinates of every point pricing._price_at is called
    on, in order, in the list returned."""
    priced, price_at = [], pricing._price_at

    def spy(vs, point, *args):
        priced.append(point.coords)
        return price_at(vs, point, *args)

    monkeypatch.setattr(pricing, "_price_at", spy)
    return priced


class TestOptimalCe:
    def test_cutlery_revenue_one(self):
        res = optimal_ce(CUTLERY, (1, 1, 1))
        assert res.status == FOUND and res.revenue == 1

    def test_shifted_revenue_seven(self):
        res = optimal_ce(SHIFTED, (1, 1, 1))
        assert res.status == FOUND and res.revenue == 7

    def test_zero_supply(self):
        vs = [Valuation.zero(K3)]
        res = optimal_ce(vs, (0, 0, 0))
        assert res.status == FOUND
        assert res.revenue == 0
        assert res.allocation == (frozenset(),)
        assert res.price == PriceVector.zero(K3)

    def test_tie_breaks_to_lex_smallest_point(self):
        res = optimal_ce([Valuation.zero(K3)] * 2, (1, 1, 0))
        assert res.status == FOUND and res.revenue == 0
        assert res.point.coords == (1, 1, 0, 0, 0, 0)

    def test_supply_above_m_rejected(self):
        with pytest.raises(ValueError, match=r"supply entries must lie in 0\.\.m"):
            optimal_ce([Valuation.zero(K3)], (2, 0, 0))

    @pytest.mark.parametrize(
        "supply, message",
        [
            ((1, 1), "expected 3 supply entries"),
            ((-1, 0, 5), "supply entries must be nonnegative"),  # sign before <= m
            ((5, 0, -1), "supply entries must be nonnegative"),
        ],
    )
    def test_supply_length_then_sign(self, supply, message):
        with pytest.raises(ValueError, match=message):
            optimal_ce([Valuation.zero(K3)], supply)

    @pytest.mark.parametrize(
        "entry", [1.5, 1.0, True, F(1)], ids=["half", "float", "bool", "fraction"]
    )
    def test_supply_entries_must_be_ints(self, entry):
        """A caller's bad supply is an input error, not a solver defect."""
        with pytest.raises(ValueError, match="supply entries must be integers"):
            optimal_ce([Valuation.zero(K3)] * 2, (entry, 1, 0))

    def test_caps_before_supply(self):
        K7 = ValueGraph.complete(7)
        with pytest.raises(CapExceededError, match="max_n"):
            optimal_ce([Valuation.zero(K7)], (-1,))

    def test_walrasian_mode_bounded_by_quadratic(self):
        res_q = optimal_ce(SHIFTED, (1, 1, 1))
        res_w = optimal_ce(SHIFTED, (1, 1, 1), walrasian=True)
        assert res_w.status == FOUND
        assert res_w.price.linear_only
        assert res_w.revenue <= res_q.revenue

    def test_walrasian_not_found_is_certified(self):
        res = optimal_ce(CUTLERY, (1, 1, 1), walrasian=True)
        assert res.status == NO_POINT_FOUND

    def test_valuations_over_different_graphs_rejected(self):
        with pytest.raises(ValueError, match="different graphs"):
            optimal_ce([Valuation.zero(K3), Valuation.zero(ValueGraph(3, ()))], (1, 1, 1))

    def test_neg_inf_weight_rejected(self):
        w = (NEG_INF,) + (F(0),) * 5
        with pytest.raises(ValueError, match="finite"):
            optimal_ce([Valuation(K3, w), Valuation.zero(K3)], (1, 1, 1))

    @pytest.mark.parametrize(
        "weights, supply, point, revenue",
        [
            # the revenue-2 point of higher welfare is priced first; the
            # lexicographically smaller one, of lower welfare, still wins
            (
                [(-1, 0, 0, 1, -1, 1), (0, 1, 0, 2, 2, 2), (1, -1, 0, 0, -1, 0)],
                (0, 2, 2), (0, 2, 2, 0, 0, 1), 2,
            ),
            # the winning point's welfare equals the best revenue already found
            (
                [(1, 2, 2, -1, 1, 2), (2, -1, 1, -1, 1, 2), (1, -1, 2, 1, 2, 2)],
                (3, 1, 1), (3, 1, 1, 1, 1, 0), 9,
            ),
        ],
    )
    def test_ties_across_welfare_levels(self, weights, supply, point, revenue):
        vs = [Valuation(K3, tuple(F(w) for w in ws)) for ws in weights]
        res = optimal_ce(vs, supply)
        assert (res.point.coords, res.revenue) == (point, revenue)
        ref = box_optimal_ce(vs, supply)
        assert (res.point, res.allocation) == (ref.point, ref.allocation)

    @given(graphs(max_n=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_box_search(self, g, data):
        """The welfare-ordered search returns what pricing every point of
        the candidate box returns: status, point, revenue, allocation and
        price, including the lexicographic tie-breaks (all-zero
        valuations tie everywhere). It prices exactly the points that
        folding every point first and pricing in (-welfare, coords)
        order does, in that order (a spy on _price_at)."""
        m = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            vs = [Valuation.zero(g)] * m
        else:
            vs = [data.draw(valuations(g)) for _ in range(m)]
        supply = tuple(data.draw(st.integers(0, m)) for _ in range(g.n))
        for walrasian in (False, True):
            expected = eager_priced(vs, supply, walrasian)
            with pytest.MonkeyPatch.context() as mp:
                priced = spy_priced(mp)
                ours = optimal_ce(vs, supply, walrasian=walrasian)
            assert priced == expected
            assert ours == box_optimal_ce(vs, supply, walrasian)

    def test_loose_bound_is_folded_not_priced(self, monkeypatch):
        """On K2 with supply (1, 1), both points have bound 4: the split
        ({0}, {1}) can give agent 0 both of its tops, 1 and 3. The point
        (1, 1, 0) comes first on coordinates, but its welfare is 1, so it
        goes back behind (1, 1, 1), whose welfare is 4, and is never
        priced: the revenue found there beats 1."""
        vs = [Valuation(K2, (F(1), F(3), F(0))), Valuation(K2, (F(-3), F(0), F(-3)))]
        assert eager_priced(vs, (1, 1), False) == [(1, 1, 1)]
        priced = spy_priced(monkeypatch)
        res = optimal_ce(vs, (1, 1))
        assert priced == [(1, 1, 1)]
        assert res.revenue > 1

    def test_cutlery_rules_out_losing_points_after_one_round(self, monkeypatch):
        """Quadratic cutlery prices four points. The first wins, at
        revenue 1, in two LP rounds; the first round of each of the other
        three already bounds its revenue below 1, so it stops there,
        unverified. Pricing every point to the end takes 9 LPs."""
        lps, verified = [], []
        solve, verify = pricing.lp_solve, pricing.verify_ce
        monkeypatch.setattr(pricing, "lp_solve", lambda lp: lps.append(lp) or solve(lp))
        monkeypatch.setattr(
            pricing, "verify_ce", lambda *args: verified.append(args) or verify(*args)
        )
        res = optimal_ce(CUTLERY, (1, 1, 1))
        assert (len(lps), len(verified)) == (5, 1)
        monkeypatch.undo()
        assert res == box_optimal_ce(CUTLERY, (1, 1, 1))

    def test_walrasian_prices_one_point(self, monkeypatch):
        priced = spy_priced(monkeypatch)
        assert optimal_ce(CUTLERY, (1, 1, 1), walrasian=True).status == NO_POINT_FOUND
        assert len(priced) == 1
        assert optimal_ce(SHIFTED, (1, 1, 1), walrasian=True).status == FOUND
        assert len(priced) == 2

    def test_walrasian_keeps_no_split_store(self):
        """Walrasian mode folds the splits as they stream in and keeps none
        of them. A warm second solve at n = 5, m = 6, supply 2 traces a
        peak of about 25 kB; grouping its 1,439 splits by their 1,269
        points first traces about 490 kB."""
        g = ValueGraph.complete(5)
        rng = random.Random(1)
        vs = [random_valuation(rng, g, -3, 3) for _ in range(6)]
        expected = optimal_ce(vs, (2,) * 5, walrasian=True)
        tracemalloc.start()
        try:
            res = optimal_ce(vs, (2,) * 5, walrasian=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res == expected
        assert peak < 100_000

    def test_walrasian_equals_box_search_with_negatives(self):
        """Walrasian mode prices only the least point of maximal welfare;
        pricing every point of the box agrees, negatives included. K3
        with unit supply and weights in [-5, 5] lacks a Walrasian price
        often enough for the corpus to hold several negatives."""
        rng = random.Random(1)
        negatives = 0
        for _ in range(80):
            vs = [
                Valuation(K3, tuple(F(rng.randint(-5, 5)) for _ in range(K3.d)))
                for _ in range(rng.randint(2, 3))
            ]
            ours = optimal_ce(vs, (1, 1, 1), walrasian=True)
            ref = box_optimal_ce(vs, (1, 1, 1), walrasian=True)
            assert (ours.status, ours.point, ours.revenue, ours.allocation) == (
                ref.status, ref.point, ref.revenue, ref.allocation
            )
            negatives += ours.status == NO_POINT_FOUND
        assert negatives >= 3

    def test_vertex_keyed_fold_keeps_the_top_entry(self, monkeypatch):
        """One fold of the whole stream, the entry a key of the n vertex
        counts would have, is the first in (-welfare, coords) order of the
        folds per point. It matches no more splits than they do, and they
        match no more than there are."""
        calls = []
        assign = demand._assign

        def counted(masks, *args):
            calls.append(masks)
            return assign(masks, *args)

        monkeypatch.setattr(demand, "_assign", counted)
        rng = random.Random(7)
        point_calls = vertex_calls = 0
        for _ in range(40):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            g = ValueGraph.from_edges(
                n, [e for e in ValueGraph.complete(n).edges if rng.random() < 0.8]
            )
            vs = [random_valuation(rng, g, -3, 3) for _ in range(m)]
            supply = tuple(rng.randint(0, min(2, m)) for _ in range(n))
            items = list(enumerate_aggregates(g, supply, m))
            fold = demand._Fold(vs)
            calls.clear()
            per_point = fold_points(fold, items)
            point_n = len(calls)
            calls.clear()
            whole = fold.best(items)
            vertex_n = len(calls)
            assert whole == min(per_point, key=lambda entry: (-entry[0], entry[2]))
            assert vertex_n <= point_n <= len(items)
            point_calls += point_n
            vertex_calls += vertex_n
        assert vertex_calls < point_calls

    def test_dominates_every_candidate_point(self):
        from gpauction.demand import candidate_points

        best = optimal_ce(CUTLERY, (1, 1, 1))
        for a in candidate_points(K3, (1, 1, 1)):
            res = ce_price_at_point(CUTLERY, a)
            if res.status == FOUND:
                assert best.revenue >= res.revenue


class TestCeForCovering:
    def test_all_agents_on_full_graph(self):
        vs = [
            Valuation(K3, tuple(F(k) for k in (1, 2, 0, 1, 0, 1))),
            Valuation(K3, tuple(F(k) for k in (0, 1, 2, 0, 1, 0))),
        ]
        a = char_vector([0, 1, 2], K3)
        res = ce_for_covering(vs, (1, 1, 1), a)
        assert res.status == FOUND

    def test_two_clique_bidders(self):
        w1 = (F(2), F(3), NEG_INF, F(1), NEG_INF, NEG_INF)
        w2 = (NEG_INF, F(1), F(2), NEG_INF, NEG_INF, F(2))
        vs = [Valuation(K3, w1), Valuation(K3, w2)]
        a = char_vector([0, 1], K3) + char_vector([2], K3)
        res = ce_for_covering(vs, (1, 1, 1), a)
        assert res.status == FOUND
        supports = [v.support for v in vs]
        for b, S in enumerate(res.allocation):
            assert S <= supports[b]
        for b, v in enumerate(vs):
            for S in demand_set(v, res.price).bundles:
                assert S <= supports[b]

    def test_non_covering_rejected(self):
        w1 = (F(1), F(0), NEG_INF, F(0), NEG_INF, NEG_INF)
        w2 = (F(0), F(1), NEG_INF, F(0), NEG_INF, NEG_INF)
        vs = [Valuation(K3, w1), Valuation(K3, w2)]
        with pytest.raises(CoveringError, match="no agent's support"):
            ce_for_covering(vs, (1, 1, 0), GPoint.zero(K3))

    def test_supply_entries_must_be_ints(self):
        vs = [Valuation.zero(K3)] * 2
        a = char_vector([0, 1, 2], K3)
        with pytest.raises(ValueError, match="supply entries must be integers"):
            ce_for_covering(vs, (1.0, 1, 1), a)

    def test_point_off_the_supply_rejected(self):
        vs = [Valuation.zero(K3)] * 2
        with pytest.raises(ValueError, match=r"point projects to \(1, 1, 0\), not the supply"):
            ce_for_covering(vs, (1, 1, 1), char_vector([0, 1], K3))

    def test_supply_off_two_levels_rejected(self):
        vs = [Valuation.zero(K3)] * 2
        a = char_vector([0, 1, 2], K3) + char_vector([0], K3)
        with pytest.raises(ValueError, match=r"\{0, r\}\^n, got levels \[1, 2\]"):
            ce_for_covering(vs, (2, 1, 1), a)

    def test_incompatible_point_rejected(self):
        w1 = (F(2), F(3), NEG_INF, F(1), NEG_INF, NEG_INF)
        w2 = (NEG_INF, F(1), F(2), NEG_INF, NEG_INF, F(2))
        vs = [Valuation(K3, w1), Valuation(K3, w2)]
        bad = GPoint(K3, (1, 1, 1, 0, 1, 0))  # edge 1-3 in nobody's support
        with pytest.raises(ValueError, match="outside every agent"):
            ce_for_covering(vs, (1, 1, 1), bad)

    def test_forced_stray_copy_is_certified_infeasible(self):
        # both copies of the full clique must go somewhere, but only one
        # agent can value it: no CE sells exactly this point
        v0 = Valuation(K4, tuple(F(1) for _ in range(K4.d)))
        v1 = Valuation(K4, (F(2),) + (NEG_INF,) * 3 + (NEG_INF,) * 6)
        point = GPoint(K4, (2,) * 10)
        res = ce_for_covering([v0, v1], (2, 2, 2, 2), point)
        assert res.status == INFEASIBLE_AT_POINT

    def test_values_past_the_float_range(self):
        """A -inf weight beside values of 10^309: the welfare fold adds
        integers only, so it neither overflows nor loses the witness."""
        B = F(10**309)
        vs = [Valuation(K2, (NEG_INF, B, NEG_INF)), Valuation(K2, (B, B, F(1)))]
        a = GPoint(K2, (1, 1, 0))
        alloc = (frozenset({1}), frozenset({0}))
        assert max_welfare(vs, a) == (2 * B, alloc)
        res = ce_for_covering(vs, (1, 1), a)
        assert (res.status, res.allocation, res.revenue) == (FOUND, alloc, 2 * B)

    def test_inside_support_edges_must_be_finite(self):
        w = (F(1), F(1), F(1), NEG_INF, F(0), F(0))
        with pytest.raises(CoveringError, match="inside the support"):
            check_covering([Valuation(K3, w)])


K4_POINT = GPoint(K4, (1, 1, 1, 1) + (0,) * 6)


class TestValuationChecks:
    """Every entry point needs at least one valuation, all over one graph
    (the point's, when there is one), and checks so before any cap, table
    or search."""

    @pytest.mark.parametrize("walrasian", [False, True])
    def test_optimal_ce_rejects_mixed_graphs(self, walrasian):
        vs = [Valuation.zero(K4), Valuation.zero(K3)]
        with pytest.raises(ValueError, match="valuations over different graphs"):
            optimal_ce(vs, (1, 1, 1, 1), walrasian=walrasian)

    def test_optimal_ce_rejects_mixed_graphs_before_the_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the split search ran")

        monkeypatch.setattr(polytope, "_splits", no_search)
        with pytest.raises(ValueError, match="valuations over different graphs"):
            optimal_ce([Valuation.zero(K3), Valuation.zero(K4)], (1, 1, 1))

    def test_ce_for_covering_rejects_mixed_graphs(self):
        vs = [Valuation.zero(K4), Valuation.zero(K2)]
        with pytest.raises(ValueError, match="valuations and point over different graphs"):
            ce_for_covering(vs, (1, 1, 1, 1), K4_POINT)

    def test_point_entry_points_reject_mixed_graphs_before_the_caps(self):
        vs = [Valuation.zero(K4), Valuation.zero(K3)]
        tight = Caps(max_n=1, max_m=1)
        with pytest.raises(ValueError, match="valuations and point over different graphs"):
            ce_price_at_point(vs, K4_POINT, caps=tight)
        with pytest.raises(ValueError, match="valuations and point over different graphs"):
            max_welfare(vs, K4_POINT, tight)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: max_welfare([], K4_POINT),
            lambda: ce_price_at_point([], K4_POINT),
            lambda: ce_for_covering([], (1, 1, 1, 1), K4_POINT),
            lambda: optimal_ce([], (1, 1, 1, 1)),
            lambda: check_covering([]),
        ],
        ids=["max_welfare", "ce_price_at_point", "ce_for_covering", "optimal_ce", "check_covering"],
    )
    def test_no_valuation_rejected(self, call):
        with pytest.raises(ValueError, match="need at least one valuation"):
            call()


def fail_verification(monkeypatch):
    monkeypatch.setattr(
        pricing, "verify_ce", lambda *args, **kwargs: CEVerdict(False, F(0), ())
    )


class TestVerificationGuard:
    def test_point_pricing_raises_internal_error(self, monkeypatch):
        fail_verification(monkeypatch)
        with pytest.raises(InternalError, match="verification"):
            ce_price_at_point(CUTLERY, GPoint(K3, (1, 1, 1, 1, 0, 0)))

    def test_covering_raises_internal_error(self, monkeypatch):
        fail_verification(monkeypatch)
        w1 = (F(2), F(3), NEG_INF, F(1), NEG_INF, NEG_INF)
        w2 = (NEG_INF, F(1), F(2), NEG_INF, NEG_INF, F(2))
        vs = [Valuation(K3, w1), Valuation(K3, w2)]
        a = char_vector([0, 1], K3) + char_vector([2], K3)
        with pytest.raises(InternalError, match="verification"):
            ce_for_covering(vs, (1, 1, 1), a)

    def test_lp_ending_infeasible_raises_internal_error(self, monkeypatch):
        """The seed columns make the dual LP feasible, so any end but
        OPTIMAL or UNBOUNDED is a fault, not a verdict."""
        monkeypatch.setattr(pricing, "lp_solve", lambda lp: LPResult(INFEASIBLE))
        with pytest.raises(InternalError, match="ended infeasible"):
            ce_price_at_point(CUTLERY, GPoint(K3, (1, 1, 1, 1, 0, 0)))


class TestIntegerRounds:
    """The pricing rounds build their LPs from ints and read the duals as
    ints: no LP passes the checked constructor, and the only scaled_ints
    is the one of the final verify_ce of each FOUND result."""

    CASES = {
        key: run
        for key, run in golden_cases()
        if key.startswith(("optimal/cutlery/", "point/0/"))
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_no_checked_lp_and_one_scaled_ints_per_found(self, monkeypatch, case):
        counts = {"checked": 0, "scaled": 0, "found": 0}
        post_init, scaled_ints, price_at = (
            LinearProgram.__post_init__, model.scaled_ints, pricing._price_at
        )

        def checked(lp):
            counts["checked"] += 1
            post_init(lp)

        def scaled(xs):
            counts["scaled"] += 1
            return scaled_ints(xs)

        def priced(*args, **kwargs):
            best = args[5] if len(args) > 5 else kwargs.get("best")
            res = price_at(*args, **kwargs)
            counts["found"] += res.status == FOUND and res is not best
            return res

        monkeypatch.setattr(LinearProgram, "__post_init__", checked)
        monkeypatch.setattr(model, "scaled_ints", scaled)
        monkeypatch.setattr(pricing, "_price_at", priced)
        res = self.CASES[case]()
        assert counts["checked"] == 0
        assert counts["scaled"] == counts["found"]
        assert (counts["found"] > 0) == (res.status == FOUND)

    def test_public_constructor_still_checks_types(self):
        with pytest.raises(TypeError):
            LinearProgram((F(1, 2),), ((1,),), (1,))


class TestExistenceSuitesMini:
    def test_disjoint_clique_points_always_priceable(self):
        rng = random.Random(101)
        for _ in range(25):
            vs, supply, point = disjoint_clique_instance(rng)
            res = ce_price_at_point(vs, point)
            assert res.status == FOUND
            assert verify_ce(vs, res.allocation, res.price).ok

    def test_nested_chain_points_always_priceable(self):
        rng = random.Random(102)
        for _ in range(25):
            vs, supply, point = arbitrary_supply_instance(rng)
            res = ce_price_at_point(vs, point)
            assert res.status == FOUND

    def test_covering_instances_always_priceable(self):
        rng = random.Random(103)
        for _ in range(15):
            vs, supply, point = covering_instance(rng)
            res = ce_for_covering(vs, supply, point)
            assert res.status == FOUND
            supports = [v.support for v in vs]
            for b, S in enumerate(res.allocation):
                assert S <= supports[b]
            assert verify_ce(vs, res.allocation, res.price).ok
            full = reference_lp_solve(build_ce_lp(vs, res.allocation, point))
            assert res.revenue == full.value

    def test_walrasian_found_implies_quadratic_found(self):
        rng = random.Random(104)
        hits = 0
        for _ in range(20):
            vs, supply, point = disjoint_clique_instance(rng)
            res_w = ce_price_at_point(vs, point, walrasian=True)
            if res_w.status != FOUND:
                continue
            hits += 1
            res_q = ce_price_at_point(vs, point)
            assert res_q.status == FOUND
            assert res_q.revenue >= res_w.revenue
        assert hits > 0
