"""Golden outputs, every price entry included.

The benchmark's reference and the other tests re-certify a price rather
than compare it, so an LP change that lands on another optimal vertex
would pass them. This test pins the whole result: status, point,
revenue, allocation and each price entry, on

- ``ce_price_at_point`` at the nested-chain point of
  ``randgen.arbitrary_supply_instance(Random(s))``, quadratic and
  Walrasian;
- ``ce_for_covering`` on ``randgen.covering_instance(Random(s))``;
- ``optimal_ce`` on the ``cutlery`` and ``cutlery-shifted`` corpus
  instances, quadratic and Walrasian;

for s = 0-29. Record the fixture again with

    PYTHONPATH=src python -m tests.test_golden

which only an intended change of the solver's outputs may call for.
"""
import json
from functools import partial
from pathlib import Path
from random import Random

from gpauction.instances import corpus_instance, print_bundles, print_price
from gpauction.pricing import ce_for_covering, ce_price_at_point, optimal_ce
from gpauction.randgen import arbitrary_supply_instance, covering_instance

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


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden_outputs().items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
