"""The column-generation path of every golden case, pinned.

For each of the 94 cases of ``test_golden``, the fixture lists the
(rows, columns, status) of every LP that pricing solves, in order: how
many rounds the lazy LP took and how many columns each round had. The
golden prices pin where the LP ends; this pins the way there, so a
change that keeps the prices but adds rounds or columns shows here.
Record the fixture again with

    PYTHONPATH=src python -m tests.test_lp_rounds

which only an intended change of the column generation may call for.
"""
import json
from pathlib import Path

import pytest

from gpauction import pricing

from .test_golden import golden_cases

FIXTURE = Path(__file__).resolve().parent / "golden_lp_rounds.json"


def lp_rounds(monkeypatch) -> dict:
    """Every case's LPs as [rows, columns, status], through a spy on the
    lp_solve that pricing calls."""
    calls = []

    def spy(lp):
        res = solve(lp)
        calls.append([len(lp.rows), len(lp.objective), res.status])
        return res

    solve = pricing.lp_solve
    monkeypatch.setattr(pricing, "lp_solve", spy)
    out = {}
    for key, run in golden_cases():
        calls.clear()
        run()
        out[key] = list(calls)
    return out


def test_lp_rounds_equal_the_recorded_ones(monkeypatch):
    expected = json.loads(FIXTURE.read_text())
    got = lp_rounds(monkeypatch)
    assert got.keys() == expected.keys()
    differ = [key for key in expected if got[key] != expected[key]]
    assert not differ, f"LP rounds differ from {FIXTURE.name} at {differ}"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        rounds = lp_rounds(mp)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(rounds.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
