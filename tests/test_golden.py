"""Golden outputs, every price entry included.

The benchmark's reference and the other tests re-certify a price rather
than compare it, so an LP change that lands on another optimal vertex
would pass them. This test pins the whole result: status, point,
revenue, allocation and each price entry, on

- ``ce_price_at_point`` at the nested-chain point of
  ``arbitrary_supply_instance(Random(s))`` from ``tests/randgen.py``,
  quadratic and Walrasian;
- ``ce_for_covering`` on ``covering_instance(Random(s))``;
- ``optimal_ce`` on the ``cutlery`` and ``cutlery-shifted`` corpus
  instances, quadratic and Walrasian;

for s = 0-29. Record the fixture again with

    PYTHONPATH=src python -m tests.test_golden

which only an intended change of the solver's outputs may call for.
A second test pins the streams of every generator in ``tests/randgen.py``
by digest, so a change there that would move these instances, or the
suites' and the ladder's, fails on its own.
"""
import hashlib
import json
from functools import partial
from pathlib import Path
from random import Random

from gpauction.instances import corpus_instance, print_bundles, print_price
from gpauction.model import GPoint, Valuation, ValueGraph
from gpauction.pricing import ce_for_covering, ce_price_at_point, optimal_ce

from .randgen import (
    arbitrary_supply_instance,
    covering_instance,
    disjoint_clique_instance,
    random_price,
    random_valuation,
    shift_triple,
)

FIXTURE = Path(__file__).resolve().parent / "golden_prices.json"
SEEDS = range(30)
MODES = {"quadratic": False, "walrasian": True}


def record(res) -> dict:
    if res.point is None:
        return {"status": res.status}
    out = {"status": res.status, "point": list(res.point.coords)}
    if res.price is not None:
        out["revenue"] = str(res.revenue)
        out["allocation"] = print_bundles(res.allocation)
        out["price"] = print_price(res.price)
    return out


def golden_cases():
    """(key, solve) for each of the 94 cases; solve() returns the result."""
    for s in SEEDS:
        vs, _, point = arbitrary_supply_instance(Random(s))
        for mode, walrasian in MODES.items():
            yield f"point/{s}/{mode}", partial(ce_price_at_point, vs, point, walrasian=walrasian)
    for s in SEEDS:
        vs, supply, point = covering_instance(Random(s))
        yield f"covering/{s}", partial(ce_for_covering, vs, supply, point)
    for name in ("cutlery", "cutlery-shifted"):
        inst = corpus_instance(name)
        for mode, walrasian in MODES.items():
            yield f"optimal/{name}/{mode}", partial(
                optimal_ce, inst.valuations, inst.supply, walrasian=walrasian
            )


def golden_outputs() -> dict:
    return {key: record(solve()) for key, solve in golden_cases()}


def test_outputs_equal_the_recorded_ones():
    expected = json.loads(FIXTURE.read_text())
    got = golden_outputs()
    assert got.keys() == expected.keys()
    differ = [key for key in expected if got[key] != expected[key]]
    assert not differ, f"outputs differ from {FIXTURE.name} at {differ}"


K4 = ValueGraph.complete(4)
GENERATORS = {
    "arbitrary_supply_instance": arbitrary_supply_instance,
    "covering_instance": covering_instance,
    "disjoint_clique_instance": disjoint_clique_instance,
    "shift_triple": shift_triple,
    "random_valuation": partial(random_valuation, graph=K4),
    "random_price": partial(random_price, graph=K4),
}
# sha256 of stream_text(name) for each generator.
STREAMS = {
    "arbitrary_supply_instance": "5f46a087b24574e6c4edaad54262001db288952e092c1a6ef4680e49dc8df4b9",
    "covering_instance": "e099f26574fb4e2e5897e13487cf35dce610d724f51948e4faddbfd4f74cafd4",
    "disjoint_clique_instance": "9983ff68a52bb2142b181b670fab6b43cbc781e0c5657e95550f041edfef119e",
    "shift_triple": "1487daf68d5646834cf30326c27e14d36ecc66ed4bdec64c4a4dfeb5de8b9fb0",
    "random_valuation": "11fd9eff32c89ec2fce41755d1d2c95088b465909a04755540246ad22181e333",
    "random_price": "43cb1877a5d98f80354e09d5fda7c0eaecf2f0a06ab59894edf1e227f1669cc8",
}


def canon(x):
    """A draw as plain data: a valuation as its graph's edges and its
    weights as strings, a point as its coordinates, a number as a string."""
    if isinstance(x, Valuation):
        return [list(x.graph.edges), [str(w) for w in x.weights]]
    if isinstance(x, GPoint):
        return list(x.coords)
    if isinstance(x, tuple):
        return [canon(y) for y in x]
    return str(x)


def stream_text(name: str) -> str:
    """The first three draws of a generator from Random(s), s = 0-4."""
    draws = []
    for s in range(5):
        rng = Random(s)
        draws.append([canon(GENERATORS[name](rng)) for _ in range(3)])
    return json.dumps(draws)


def test_generator_streams_are_pinned():
    """Every generator draws what it drew when the digests were recorded,
    so the instances behind the golden outputs and the suites stay put."""
    assert STREAMS.keys() == GENERATORS.keys()
    differ = [name for name, digest in STREAMS.items()
              if hashlib.sha256(stream_text(name).encode()).hexdigest() != digest]
    assert not differ, f"generator streams changed: {differ}"


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden_outputs().items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
