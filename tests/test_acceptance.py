"""Acceptance suite: one test per criterion, exact rational assertions,
stated runtime limits enforced. Each test prints a PASS line on success
(run with -s to stream them)."""
import json
import random
import time
from fractions import Fraction as F

from gpauction.cli import main
from gpauction.demand import (
    candidate_points,
    demand_set,
    verify_ce,
    verify_pe,
)
from gpauction.instances import corpus_instance, print_instance
from gpauction.model import PriceVector, ValueGraph, Valuation, shift
from gpauction.polytope import (
    enumerate_decompositions,
    minkowski_contains,
    nested_chain_point,
    vertex_sum_contains,
)
from gpauction.pricing import (
    FOUND,
    NO_POINT_FOUND,
    ce_for_covering,
    ce_price_at_point,
    optimal_ce,
)
from .oracle import oracle_optimal_revenue
from .randgen import (
    arbitrary_supply_instance,
    covering_instance,
    disjoint_clique_instance,
    shift_triple,
)

CUTLERY = corpus_instance("cutlery")
SHIFTED = corpus_instance("cutlery-shifted")


def report(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k}: PASS - {text}", flush=True)


def corpus_path(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(print_instance(corpus_instance(name))))
    return str(path)


def test_criterion_1_cutlery_ce(tmp_path, capsys):
    start = time.monotonic()
    code = main(["solve", corpus_path(tmp_path, "cutlery")])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "found"
    assert F(doc["revenue"]) == F(1)
    assert elapsed < 1.0
    res = optimal_ce(CUTLERY.valuations, CUTLERY.supply)
    assert res.revenue == F(1)
    with capsys.disabled():
        report(1, f"cutlery optimal CE revenue 1 in {elapsed:.2f}s")


def test_criterion_2_cutlery_negative(tmp_path, capsys):
    start = time.monotonic()
    vs, supply = CUTLERY.valuations, CUTLERY.supply
    ce_points = 0
    for a in candidate_points(CUTLERY.graph, supply):
        res = ce_price_at_point(vs, a)
        if res.status != FOUND:
            continue
        ce_points += 1
        assert verify_ce(vs, res.allocation, res.price).ok
        pe = verify_pe(vs, res.allocation, res.price, supply)
        assert not pe.ok, f"PE unexpectedly holds at {a.coords}"
    assert ce_points > 0
    assert optimal_ce(vs, supply, walrasian=True).status == NO_POINT_FOUND
    code = main(["solve", corpus_path(tmp_path, "cutlery"), "--walrasian"])
    capsys.readouterr()
    assert code == 2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    with capsys.disabled():
        report(
            2,
            f"PE rejected at all {ce_points} CE points, no Walrasian "
            f"equilibrium, in {elapsed:.2f}s",
        )


def test_criterion_3_shifted_cutlery(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    witness.write_text(
        json.dumps(
            {
                "allocation": [[1, 2, 3], [], []],
                "price": {"vertex": ["3", "3", "1"], "edge": {}},
            }
        )
    )
    code = main(
        ["verify", corpus_path(tmp_path, "cutlery-shifted"), str(witness), "--pe"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["ce"] is True and doc["pe"] is True
    assert F(doc["revenue"]) == F(7)
    found = optimal_ce(SHIFTED.valuations, SHIFTED.supply, walrasian=True)
    assert found.status == FOUND and found.price.linear_only
    with capsys.disabled():
        report(3, "shifted cutlery PE verified at (3,3,1,0,0,0), revenue 7, "
                  "Walrasian price exists")


def test_criterion_4_house_counterexample(capsys):
    start = time.monotonic()
    house = corpus_instance("house")
    faces, a = list(house.faces), house.point
    assert minkowski_contains(faces, a) is True
    assert vertex_sum_contains(faces, a) is None
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(4, f"house point in the face sum but not the vertex sum, "
                  f"in {elapsed:.2f}s")


def test_criterion_5_idp_failure(capsys):
    start = time.monotonic()
    idp = corpus_instance("idp-k4")
    assert list(enumerate_decompositions(idp.point, 4)) == []
    assert minkowski_contains(list(idp.faces), idp.point) is True
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(5, f"K4 point indecomposable yet in the edge-face sum, "
                  f"in {elapsed:.2f}s")


def test_criterion_6_disjoint_clique_suite(capsys):
    rng = random.Random(60)
    start = time.monotonic()
    for k in range(200):
        vs, supply, point = disjoint_clique_instance(rng)
        res = ce_price_at_point(vs, point)
        assert res.status == FOUND, f"instance {k}: no CE at {point.coords}"
        verdict = verify_ce(vs, res.allocation, res.price)
        assert verdict.ok and verdict.revenue == res.revenue
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(6, f"200/200 disjoint-clique points priced, all verified, "
                  f"in {elapsed:.1f}s")


def test_criterion_7_nested_chain_suite(capsys):
    rng = random.Random(70)
    start = time.monotonic()
    for k in range(200):
        vs, supply, _ = arbitrary_supply_instance(rng)
        point, _ = nested_chain_point(supply, len(vs), vs[0].graph)
        res = ce_price_at_point(vs, point)
        assert res.status == FOUND, f"instance {k}: no CE at {point.coords}"
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(7, f"200/200 nested-chain points priced, in {elapsed:.1f}s")


def test_criterion_8_covering_suite(capsys):
    rng = random.Random(80)
    start = time.monotonic()
    for k in range(100):
        vs, supply, point = covering_instance(rng)
        res = ce_for_covering(vs, supply, point)
        assert res.status == FOUND, f"instance {k}: no covering CE"
        supports = [v.support for v in vs]
        for b, (v, S) in enumerate(zip(vs, res.allocation)):
            assert S <= supports[b]
            for T in demand_set(v, res.price).bundles:
                assert T <= supports[b]
        assert verify_ce(vs, res.allocation, res.price).ok
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(8, f"100/100 covering instances priced inside supports, "
                  f"in {elapsed:.1f}s")


def test_criterion_9_shift_invariance(capsys):
    rng = random.Random(90)
    for _ in range(100):
        v, p, c = shift_triple(rng)
        g = v.graph
        before = demand_set(v, PriceVector(g, p))
        after = demand_set(
            shift(v, c), PriceVector(g, tuple(a + b for a, b in zip(p, c)))
        )
        assert before.bundles == after.bundles
    with capsys.disabled():
        report(9, "100/100 demand sets unchanged under weight/price shifts")


def test_criterion_10_oracle_equivalence(capsys):
    rng = random.Random(100)
    start = time.monotonic()
    cases = [
        (CUTLERY.valuations, CUTLERY.supply),
        (SHIFTED.valuations, SHIFTED.supply),
    ]
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        g = ValueGraph.complete(n)
        vs = [
            Valuation(g, tuple(F(rng.randint(-5, 5)) for _ in range(g.d)))
            for _ in range(m)
        ]
        supply = tuple(rng.randint(0, m) for _ in range(n))
        cases.append((vs, supply))
    for k, (vs, supply) in enumerate(cases):
        res = optimal_ce(vs, supply)
        expected = oracle_optimal_revenue(vs, supply)
        assert expected is not None
        assert res.status == FOUND and res.revenue == expected, f"case {k}"
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            10,
            f"optimal revenue matches the brute-force oracle on "
            f"{len(cases)} instances, in {elapsed:.1f}s",
        )
