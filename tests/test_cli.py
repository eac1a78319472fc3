import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gpauction import pricing
from gpauction.cli import entrypoint, main
from gpauction.demand import CEVerdict
from gpauction.instances import corpus_instance, parse_instance, print_instance
from gpauction.linprog import INFEASIBLE, LPResult


def write_corpus(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(print_instance(corpus_instance(name))))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_cutlery_revenue_one(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "cutlery")
        code, out, err = run(capsys, ["solve", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "found"
        assert doc["revenue"] == "1"
        assert "revenue" in err

    def test_cutlery_shifted_revenue_seven(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "cutlery-shifted")
        code, out, _ = run(capsys, ["solve", path])
        assert code == 0
        assert json.loads(out)["revenue"] == "7"

    def test_cutlery_walrasian_exit_2(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "cutlery")
        code, out, err = run(capsys, ["solve", path, "--walrasian"])
        assert code == 2
        assert "no Walrasian equilibrium" in err
        assert json.loads(out)["status"] == "no-point-found"

    def test_shifted_walrasian_found(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "cutlery-shifted")
        code, out, _ = run(capsys, ["solve", path, "--walrasian"])
        assert code == 0
        doc = json.loads(out)
        assert doc["walrasian"] is True and doc["revenue"] == "7"
        assert doc["price"].get("linear_only") is True

    def test_walrasian_mode_flag_in_file(self, tmp_path, capsys):
        inst = {
            "n": 2,
            "agents": [{"vertex_weights": ["1", "2"], "edge_weights": {}}],
            "supply": [1, 1],
            "mode": {"walrasian": True},
        }
        path = tmp_path / "lin.json"
        path.write_text(json.dumps(inst))
        code, out, _ = run(capsys, ["solve", str(path)])
        doc = json.loads(out)
        assert code == 0 and doc["walrasian"] is True
        assert doc["revenue"] == "3"

    def test_walrasian_infeasible_at_point(self, tmp_path, capsys):
        """No linear price supports cutlery's singletons split."""
        path = write_corpus(tmp_path, "cutlery")
        code, out, err = run(capsys, ["solve", path, "--point", "1,1,1,0,0,0", "--walrasian"])
        assert code == 2
        assert json.loads(out) == {
            "status": "infeasible-at-point", "walrasian": True, "point": [1, 1, 1, 0, 0, 0]
        }
        assert "no Walrasian equilibrium" in err

    def test_solve_at_point(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "cutlery")
        code, out, _ = run(capsys, ["solve", path, "--point", "1,1,1,0,0,0"])
        assert code == 0
        assert json.loads(out)["revenue"] == "0"

    @pytest.mark.parametrize("mode", [[], ["--walrasian"]])
    def test_point_must_sell_the_supply(self, tmp_path, capsys, mode):
        """A point of projection (2, 2, 2) on cutlery, supply (1, 1, 1), is
        an input error in either mode; decompose still takes it."""
        path = write_corpus(tmp_path, "cutlery")
        code, out, err = run(capsys, ["solve", path, "--point", "2,2,2,1,1,1", *mode])
        assert code == 1 and out == ""
        assert err == "error: point projects to (2, 2, 2), not the supply (1, 1, 1)\n"
        code, _, _ = run(capsys, ["decompose", path, "--point", "2,2,2,1,1,1"])
        assert code != 1

    def test_jobs_flag_is_rejected(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "cutlery")
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--jobs", "2"])
        assert exc.value.code == 1
        assert "--jobs" in capsys.readouterr().err

    def test_failed_verification_is_internal_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            pricing, "verify_ce", lambda *a, **k: CEVerdict(False, Fraction(0), ())
        )
        path = write_corpus(tmp_path, "cutlery")
        code, out, err = run(capsys, ["solve", path, "--point", "1,1,1,1,0,0"])
        assert code == 3 and out == ""
        assert err.startswith("error: internal:") and len(err.splitlines()) == 1

    def test_pricing_lp_fault_is_internal_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pricing, "lp_solve", lambda lp: LPResult(INFEASIBLE))
        path = write_corpus(tmp_path, "cutlery")
        code, out, err = run(capsys, ["solve", path, "--point", "1,1,1,1,0,0"])
        assert code == 3 and out == ""
        assert err.startswith("error: internal:") and len(err.splitlines()) == 1

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, ["solve", "/nonexistent.json"])
        assert code == 1 and "error" in err

    def test_geometry_instance_has_no_agents(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "house")
        code, _, err = run(capsys, ["solve", path])
        assert code == 1 and "no agents" in err

    def test_covering_instance_solves(self, tmp_path, capsys):
        doc = {
            "n": 3,
            "agents": [
                {
                    "vertex_weights": ["2", "3", "-inf"],
                    "edge_weights": {"1-2": "1", "1-3": "-inf", "2-3": "-inf"},
                },
                {
                    "vertex_weights": ["-inf", "1", "2"],
                    "edge_weights": {"1-2": "-inf", "1-3": "-inf", "2-3": "2"},
                },
            ],
            "supply": [1, 1, 1],
            "mode": {"covering": True},
        }
        path = tmp_path / "covering.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["solve", str(path)])
        assert code == 0
        assert json.loads(out)["status"] == "found"

    @pytest.mark.parametrize("point", [[], ["--point", "1,2,0"]])
    def test_covering_supply_of_two_levels(self, tmp_path, capsys, point):
        """Two nonzero supply levels are refused by name, with or without
        a point: the canonical point is not built from one of them."""
        doc = {"n": 2, "agents": [{"vertex_weights": [1, "-inf"]},
                                  {"vertex_weights": ["-inf", 1]}], "supply": [1, 2]}
        path = tmp_path / "levels.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["solve", str(path), *point])
        assert (code, out) == (1, "")
        assert err == "error: supply must lie in {0, r}^n, got levels [1, 2]\n"


    def test_values_past_the_float_range(self, tmp_path, capsys):
        """A -inf weight beside values of 10^309: the welfare fold adds
        integers only, so the instance solves instead of overflowing."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(OVERFLOW_DOC))
        code, out, err = run(capsys, ["solve", str(path)])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["status"] == "found"
        assert doc["allocation"] == [[2], [1]]
        assert doc["revenue"] == str(2 * 10**309)


class TestVerify:
    def write_witness(self, tmp_path, alloc, vertex, edge):
        doc = {"allocation": alloc, "price": {"vertex": vertex, "edge": edge}}
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_cutlery_ce_pass_pe_fail(self, tmp_path, capsys):
        inst = write_corpus(tmp_path, "cutlery")
        wit = self.write_witness(
            tmp_path, [[1, 2], [3], []], ["0", "0", "0"],
            {"1-2": "1", "1-3": "1", "2-3": "1"},
        )
        code, out, _ = run(capsys, ["verify", inst, wit])
        assert code == 0 and json.loads(out)["ce"] is True
        code, out, _ = run(capsys, ["verify", inst, wit, "--pe"])
        doc = json.loads(out)
        assert code == 2 and doc["ce"] is True and doc["pe"] is False

    def test_shifted_pe_passes(self, tmp_path, capsys):
        inst = write_corpus(tmp_path, "cutlery-shifted")
        wit = self.write_witness(
            tmp_path, [[1, 2, 3], [], []], ["3", "3", "1"], {}
        )
        code, out, _ = run(capsys, ["verify", inst, wit, "--pe"])
        doc = json.loads(out)
        assert code == 0 and doc["pe"] is True and doc["revenue"] == "7"

    def test_failing_ce_names_agent_and_better_bundle(self, tmp_path, capsys):
        inst = write_corpus(tmp_path, "cutlery")
        wit = self.write_witness(
            tmp_path, [[1, 2, 3], [], []], ["0", "0", "0"],
            {"1-2": "1", "1-3": "1", "2-3": "1"},
        )
        code, out, _ = run(capsys, ["verify", inst, wit])
        doc = json.loads(out)
        assert code == 2
        assert doc["failures"][0]["agent"] == 1

    def test_empty_allocation_against_zero_supply(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "agents": [{"vertex_weights": ["0", "0"], "edge_weights": {}}],
            "supply": [0, 0],
        }
        inst = tmp_path / "zero.json"
        inst.write_text(json.dumps(doc))
        wit = self.write_witness(tmp_path, [[]], ["0", "0"], {})
        code, out, _ = run(capsys, ["verify", str(inst), wit, "--pe"])
        assert code == 0 and json.loads(out)["pe"] is True

    @pytest.mark.parametrize("pe", [[], ["--pe"]])
    def test_allocation_must_sell_the_supply(self, tmp_path, capsys, pe):
        """Every agent takes all of cutlery's items: (3, 3, 3) sold of a
        supply (1, 1, 1) is an input error, with or without --pe."""
        inst = write_corpus(tmp_path, "cutlery")
        wit = self.write_witness(tmp_path, [[1, 2, 3]] * 3, ["0", "0", "0"], {})
        code, out, err = run(capsys, ["verify", inst, wit, *pe])
        assert code == 1 and out == ""
        assert err == "error: allocation sells (3, 3, 3) but the supply is (1, 1, 1)\n"

    def test_dimension_mismatch(self, tmp_path, capsys):
        inst = write_corpus(tmp_path, "cutlery")
        wit = self.write_witness(tmp_path, [[1]], ["0", "0", "0"], {})
        code, _, err = run(capsys, ["verify", inst, wit])
        assert code == 1 and "bundles" in err


class TestDemandCommand:
    def test_per_agent_demand(self, tmp_path, capsys):
        inst = write_corpus(tmp_path, "cutlery")
        price = tmp_path / "price.json"
        price.write_text(
            json.dumps(
                {"price": {"vertex": ["0", "0", "0"],
                           "edge": {"1-2": "1", "1-3": "1", "2-3": "1"}}}
            )
        )
        code, out, _ = run(capsys, ["demand", inst, str(price)])
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["utility"] == "0"
        assert [1, 2] in doc[0]["bundles"]


class TestDecompose:
    def test_idp_point_has_no_decomposition(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "idp-k4")
        code, out, _ = run(capsys, ["decompose", path])
        assert code == 2
        assert json.loads(out)["decompositions"] == []

    def test_triangle_point(self, tmp_path, capsys):
        path = write_corpus(tmp_path, "cutlery")
        code, out, _ = run(capsys, ["decompose", path, "--point", "1,1,1,0,0,0"])
        assert code == 0
        assert json.loads(out)["decompositions"] == [[[1], [2], [3]]]

    def test_zero_parts_is_input_error(self, tmp_path, capsys):
        """--m 0 is refused, not replaced by the file's agent count."""
        path = write_corpus(tmp_path, "cutlery-shifted")
        code, out, err = run(capsys, ["decompose", path, "--point", "1,1,1,1,1,1", "--m", "0"])
        assert code == 1 and out == ""
        assert err.startswith("error: ")


    def test_search_past_the_recursion_limit_runs(self, tmp_path, capsys):
        """1,200 nonempty parts, above the interpreter's default recursion
        limit, are searched on the search's own stack: exit 0 with the one
        split and no traceback."""
        doc = {"n": 2, "agents": [], "supply": [1200, 1200], "m": 1200,
               "point": [1200, 1200, 1200]}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["decompose", str(path), "--max-m", "2000"])
        assert code == 0
        assert json.loads(out)["decompositions"] == [[[1, 2]] * 1200]
        assert "Traceback" not in err


class TestCorpusCommand:
    @pytest.mark.parametrize("name", ["cutlery", "cutlery-shifted", "house", "idp-k4"])
    def test_output_reparses(self, name, capsys):
        code, out, _ = run(capsys, ["corpus", name])
        assert code == 0
        assert parse_instance(json.loads(out)) == corpus_instance(name)

    def test_house_carries_faces_and_point(self, capsys):
        code, out, _ = run(capsys, ["corpus", "house"])
        doc = json.loads(out)
        assert len(doc["faces"]) == 4
        assert doc["point"] == [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]


class TestCaps:
    def test_cap_violation_is_input_error(self, tmp_path, capsys):
        doc = {
            "n": 7,
            "agents": [{"vertex_weights": ["0"] * 7, "edge_weights": {}}],
            "supply": [0] * 7,
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["solve", str(path)])
        assert code == 1 and "cap" in err

    def test_raising_cap_warns(self, tmp_path, capsys):
        doc = {
            "n": 7,
            "agents": [{"vertex_weights": ["0"] * 7, "edge_weights": {}}],
            "supply": [0] * 7,
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["solve", str(path), "--max-n", "7"])
        assert code == 0
        assert "warning" in err


VALID_AGENT = {"vertex_weights": ["1", "2"], "edge_weights": {}}


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"agents": [5]}, "agents[0]"),
        ({"agents": {"a": 1}}, "agents"),
        ({"agents": [{"vertex_weights": ["1", "2"], "edge_weights": ["1"]}]},
         "agents[0].edge_weights"),
        ({"edges": 3}, "edges"),
        ({"faces": 5}, "faces"),
        ({"n": 2.7}, "'n'"),
        ({"n": True}, "'n'"),
        ({"n": 10**9}, "cap"),
        ({"faces": [[[float("inf")]]]}, "faces[0]"),
        ({"faces": [[[1.9, 2], [1], []]]}, "faces[0]"),
        ({"faces": [["12", [1], []]]}, "faces[0]"),
        ({"edges": [" 1-2"]}, "edges"),
        ({"edges": ["1_0-2"]}, "edges"),
        ({"edges": ["\u0661-2"]}, "edges"),
        ({"agents": [{**VALID_AGENT, "edge_weights": {"+1-2": "1"}}]},
         "agents[0].edge_weights"),
        ({"mode": {"walrasian": "false"}}, "mode.walrasian"),
        ({"mode": {"covering": "no"}}, "mode.covering"),
        ({"mode": {"walrasian": 0}}, "mode.walrasian"),
        ({"edges": ["01-2"]}, "edges"),
        ({"agents": [{"vertex_weights": ["1", "2"], "edge_weight": {"1-2": "1"}}]},
         "agents[0]: unknown key 'edge_weight'"),
        ({"mode": {"walrasain": True}}, "mode: unknown key 'walrasain'"),
        ({"edge": ["1-2"]}, "instance: unknown key 'edge', expected one of n, edges, "),
        ({"mdoe": {"walrasian": True}}, "instance: unknown key 'mdoe'"),
        ({"n": 0}, "field 'n': must be at least 1"),
        ({"edges": ["1-2", "1-2"]}, "field 'edges': duplicate edge"),
        ({"supply": 1}, "field 'supply': need a list"),
        ({"m": 0}, "field 'm': inconsistent agent count"),
        ({"mode": [True]}, "field 'mode': must be an object"),
        ({"faces": [5]}, "faces[0]: need a list of bundles"),
        ({"faces": [[[1], [1]]]}, "faces[0]: duplicate face vertex"),
        ({"name": {"x": [1]}}, "field 'name': need a string"),
        ({"edges": ["1" * 5000 + "-2"]}, "field 'edges': bad edge key"),
        ({"agents": [{"vertex_weights": ["1"]}]}, "agents[0].vertex_weights: need a list of 2"),
        # Both ends are items, so a reversed or looped key is no range error.
        ({"edges": ["2-1"]}, "field 'edges': bad edge key '2-1', need i < j"),
        ({"edges": ["1-1"]}, "field 'edges': bad edge key '1-1', need i < j"),
        ({"agents": [{**VALID_AGENT, "edge_weights": {"2-1": "1"}}]},
         "agents[0].edge_weights: bad edge key '2-1', need i < j"),
        ({"edges": ["3-1"]}, "field 'edges': edge '3-1' out of range for n=2"),
    ],
)
def test_malformed_instance_is_input_error(tmp_path, capsys, patch, field):
    doc = {"n": 2, "agents": [VALID_AGENT], "supply": [1, 1], **patch}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("command", ["solve", "decompose"])
@pytest.mark.parametrize(
    "point",
    ["1,1,1,0,1_0,0", "+1,1,1,0,0,0", " 1,1,1,0,0,0", "\u0661,1,1,0,0,0", "1,1,1,0,0,-0", "",
     "1,1,1"],
)
def test_malformed_point_is_input_error(tmp_path, capsys, command, point):
    """Each coordinate is plain ASCII digits; int() would take all of
    these (1_0 as 10, so the solve would certify a negative). An empty
    --point is one empty coordinate, not an absent option."""
    path = write_corpus(tmp_path, "cutlery")
    code, out, err = run(capsys, [command, path, "--point", point])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: --point")


@pytest.mark.parametrize("argv", [["solve", "{dir}"], ["verify", "{inst}", "{dir}"],
                                  ["demand", "{inst}", "{dir}"]])
def test_unreadable_path_is_input_error(tmp_path, capsys, argv):
    inst = write_corpus(tmp_path, "cutlery")
    code, out, err = run(capsys, [a.format(dir=tmp_path, inst=inst) for a in argv])
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_broken_output_pipe_is_not_an_input_error(tmp_path, monkeypatch):
    """Only reading input maps an OSError to exit 1: a failed write to
    stdout propagates instead of posing as an input error."""

    class BrokenStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    path = write_corpus(tmp_path, "cutlery")
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["solve", path])


CUTLERY_WITNESS = {
    "allocation": [[1, 2], [3], []],
    "price": {"vertex": ["0", "0", "0"], "edge": {"1-2": "1", "1-3": "1", "2-3": "1"}},
}


@pytest.mark.parametrize(
    "command, bad",
    [
        ("verify", {**CUTLERY_WITNESS, "price": 5}),
        ("demand", [1]),
        ("verify", {**CUTLERY_WITNESS, "price": {"vertex": ["0", "0", "0"], "edge": ["1"]}}),
        ("verify", 5),
        ("verify", {**CUTLERY_WITNESS, "allocation": [[float("inf")], [], []]}),
        ("verify", {**CUTLERY_WITNESS, "allocation": [[1.9, 2], [3], []]}),
        ("verify", {**CUTLERY_WITNESS, "allocation": ["12", [3], []]}),
        ("demand", {"vertex": ["0", "0", "0"], "linear_only": "false"}),
        ("verify", {"allocation": [[1, 2, 3], [], []],
                    "price": {"vertex": ["0", "0", "0"], "edge": {"1-3": "100"}}}),
        ("demand", {"vertex": ["0", "0", "0"], "edge": {"1-3": "100"}}),
        ("demand", {"vertex": ["0", "0", "0"], "edge": {"1-2": "100", "01-2": "0"}}),
        ("verify", {**CUTLERY_WITNESS, "price": {"vertex": ["0", "0", "0"],
                                                 "edges": {"1-2": "1", "2-3": "1"}}}),
        ("demand", {"vertex": ["0", "0", "0"], "edges": {"1-2": "1"}}),
    ],
)
def test_malformed_witness_or_price_is_input_error(tmp_path, capsys, command, bad):
    """The instance is cutlery without edge 1-3, so a price on 1-3 names
    an edge off the graph. Every other case fails before any edge key is
    read."""
    doc = print_instance(corpus_instance("cutlery"))
    doc["edges"] = ["1-2", "2-3"]
    for agent in doc["agents"]:
        agent["edge_weights"].pop("1-3", None)
    inst = tmp_path / "path.json"
    inst.write_text(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, [command, str(inst), str(path)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["verify", "{inst}", "{bad}"], {**CUTLERY_WITNESS, "allocation": [[1, 2], [3, 3], []]},
         "allocation[1]: item 3 listed twice"),
        (["verify", "--pe", "{inst}", "{bad}"],
         {**CUTLERY_WITNESS, "allocation": [[1, 1, 2], [3], []]},
         "allocation[0]: item 1 listed twice"),
        (["solve", "{bad}"], {"n": 2, "agents": [VALID_AGENT], "supply": [1, 1],
                              "faces": [[[1], [2, 2]]]},
         "faces[0][1]: item 2 listed twice"),
    ],
)
def test_repeated_item_is_input_error(tmp_path, capsys, argv, doc, message):
    """A bundle is a set: an item listed twice is an input error naming
    the bundle and the item, not the bundle with the item once (which
    would verify the cutlery CE and solve the faced instance)."""
    inst = write_corpus(tmp_path, "cutlery")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, [a.format(inst=inst, bad=bad) for a in argv])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["solve", "--walrasian", "{path}"],
         {"n": 2, "agents": [VALID_AGENT], "supply": [1, 1], "mode": {"covering": True}},
         "covering instances support quadratic pricing only"),
        (["decompose", "{path}"], {"n": 2, "agents": [VALID_AGENT], "supply": [1, 1]},
         "no point: pass --point or use an instance file with one"),
        # The file's m bounds the supply when parsed; optimal_ce's bound is
        # the agent count.
        (["solve", "{path}"], {"n": 2, "m": 3, "agents": [VALID_AGENT], "supply": [2, 1]},
         "supply entries must lie in 0..m, the agent count m = 1; got [2, 1]"),
    ],
)
def test_request_the_instance_cannot_serve_is_input_error(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, [a.format(path=path) for a in argv])
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["solve", "{bad}"], ["verify", "{inst}", "{bad}"],
                                  ["demand", "{inst}", "{bad}"]])
def test_invalid_json_names_the_file(tmp_path, capsys, argv):
    """An instance, witness or price file that is not JSON is an input
    error naming the file and the line."""
    inst = write_corpus(tmp_path, "cutlery")
    bad = tmp_path / "bad.json"
    bad.write_text('{"allocation": [[1, 2], [3], []],\n')
    code, out, err = run(capsys, [a.format(inst=inst, bad=bad) for a in argv])
    assert code == 1 and out == ""
    assert err == f"error: {bad}: invalid JSON at line 2\n"


@pytest.mark.parametrize("kind", ["instance", "witness", "price"])
def test_duplicate_key_is_input_error(tmp_path, capsys, kind):
    """A repeated key is an input error naming the file and the key.
    json alone keeps the last value, and each file here would then be
    accepted: the instance solves, the witness verifies, the demand sets
    print."""
    inst = write_corpus(tmp_path, "cutlery")
    price = '{"vertex": ["0", "0", "0"], "edge": {"1-2": "1", "1-3": "100", "1-3": "1", "2-3": "1"}}'
    bad = tmp_path / f"{kind}.json"
    if kind == "instance":
        text = Path(inst).read_text().replace('"supply"', '"supply": [0, 0, 0], "supply"')
        bad.write_text(text)
        argv, key = ["solve", str(bad)], "supply"
    elif kind == "witness":
        bad.write_text('{"allocation": [[1, 2], [3], []], "price": %s}' % price)
        argv, key = ["verify", inst, str(bad)], "1-3"
    else:
        bad.write_text('{"price": %s}' % price)
        argv, key = ["demand", inst, str(bad)], "1-3"
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: {bad}: duplicate key {key!r}\n"


needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python has no integer digit limit",
)


@needs_digit_limit
def test_integer_past_the_digit_limit_names_the_file(tmp_path, capsys):
    """json raises a plain ValueError on an integer longer than Python's
    digit limit; it is an input error naming the file."""
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    text = Path(write_corpus(tmp_path, "cutlery")).read_text()
    bad = tmp_path / "long.json"
    bad.write_text(text.replace('"supply": [1, 1, 1]', f'"supply": [1, 1, {digits}]'))
    assert digits in bad.read_text()
    code, out, err = run(capsys, ["solve", str(bad)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1


@needs_digit_limit
@pytest.mark.parametrize("command", ["solve", "decompose"])
def test_point_past_the_digit_limit_names_the_flag(tmp_path, capsys, command):
    """int() raises a plain ValueError on a coordinate longer than Python's
    digit limit; it is an input error naming --point."""
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path = write_corpus(tmp_path, "cutlery")
    code, out, err = run(capsys, [command, path, "--point", f"1,1,{digits},0,0,0"])
    assert code == 1 and out == ""
    assert err.startswith("error: --point: ") and len(err.splitlines()) == 1


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    """json.load raises RecursionError on deep nesting, no traceback."""
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["solve", str(bad)])
    assert code == 1 and out == ""
    assert err == f"error: {bad}: JSON nested too deeply\n"


@pytest.mark.parametrize("where", ["weight", "price"])
def test_exponent_string_is_rejected_at_once(tmp_path, capsys, where):
    """Fraction("1e10000000") would build a ten-million-digit integer."""
    huge = "1e10000000"
    inst = tmp_path / "inst.json"
    witness = tmp_path / "witness.json"
    doc = print_instance(corpus_instance("cutlery"))
    price = CUTLERY_WITNESS["price"]
    if where == "weight":
        doc["agents"][0]["vertex_weights"][0] = huge
    else:
        price = {**price, "vertex": [huge, "0", "0"]}
    inst.write_text(json.dumps(doc))
    witness.write_text(json.dumps({**CUTLERY_WITNESS, "price": price}))
    start = time.monotonic()
    code, out, err = run(capsys, ["verify", str(inst), str(witness)])
    assert time.monotonic() - start < 1.0
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and huge in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def mutated(base):
    """`base` with each node kept (its children mutated in turn) or, one
    time in eight, replaced by an arbitrary JSON value."""
    if isinstance(base, dict):
        kept = st.fixed_dictionaries({k: mutated(v) for k, v in base.items()})
    elif isinstance(base, list):
        kept = st.tuples(*map(mutated, base)).map(list)
    else:
        kept = st.just(base)
    return st.integers(0, 7).flatmap(lambda k: JSON_VALUES if k == 0 else kept)


CUTLERY_DOC = {**print_instance(corpus_instance("cutlery")), "point": [1, 1, 1, 0, 0, 0]}


@pytest.mark.parametrize(
    "argv, base",
    [
        (["solve", "{doc}"], CUTLERY_DOC),
        (["decompose", "{doc}"], CUTLERY_DOC),
        (["verify", "--pe", "{inst}", "{doc}"], CUTLERY_WITNESS),
        (["demand", "{inst}", "{doc}"], {"price": CUTLERY_WITNESS["price"]}),
    ],
)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_arbitrary_json_never_crashes_the_cli(tmp_path, capsys, argv, base, data):
    inst = write_corpus(tmp_path, "cutlery")
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data.draw(JSON_VALUES | mutated(base))))
    cmd = [a.format(inst=inst, doc=path) for a in argv]
    code, out, _ = run(capsys, cmd + ["--max-n", "3", "--max-m", "3"])
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""


# Two agents on two items, one refusing item 1, beside values of 10^309.
HUGE = str(10**309)
OVERFLOW_DOC = {
    "n": 2,
    "agents": [
        {"vertex_weights": ["-inf", HUGE], "edge_weights": {"1-2": "-inf"}},
        {"vertex_weights": [HUGE, HUGE], "edge_weights": {"1-2": "1"}},
    ],
    "supply": [1, 1],
    "mode": {"covering": True},
    "point": [1, 1, 0],
}
OVERFLOW_WITNESS = {
    "allocation": [[2], [1]],
    "price": {"vertex": [HUGE, HUGE], "edge": {"1-2": "1"}},
}

FINITE = (
    st.integers(-3, 3).map(str)
    | st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 4))
    | st.sampled_from([HUGE, "-" + HUGE])
)


@st.composite
def cli_cases(draw):
    """(instance, witness) with n <= 3 items and m <= 3 agents. A covering
    instance gives each agent a support, -inf off it, and an allocation
    of each item to at most one agent bidding on it; a plain one has
    finite weights and any m bundles. The supply and the point are what
    the allocation sells; the witness prices it."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    covering = draw(st.booleans())
    items = st.sets(st.integers(1, n))
    agents, alloc = [], [set() for _ in range(m)]
    for _ in range(m):
        sup = draw(items) if covering else set(range(1, n + 1))
        agents.append({
            "vertex_weights": [draw(FINITE) if i in sup else "-inf" for i in range(1, n + 1)],
            "edge_weights": {
                f"{i}-{j}": draw(FINITE) if {i, j} <= sup else "-inf" for i, j in edges
            },
        })
        if not covering:
            alloc[len(agents) - 1] = draw(items)
    if covering:
        for i in range(1, n + 1):
            bidders = [b for b, a in enumerate(agents) if a["vertex_weights"][i - 1] != "-inf"]
            owner = draw(st.sampled_from([None] + bidders))
            if owner is not None:
                alloc[owner].add(i)
    supply = [sum(i in S for S in alloc) for i in range(1, n + 1)]
    point = supply + [sum({i, j} <= S for S in alloc) for i, j in edges]
    doc = {"n": n, "agents": agents, "supply": supply, "mode": {"covering": covering},
           "point": point}
    price = {"vertex": [draw(FINITE) for _ in range(n)],
             "edge": {f"{i}-{j}": draw(FINITE) for i, j in edges}}
    return doc, {"allocation": [sorted(S) for S in alloc], "price": price}


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cli_cases())
@example(case=(OVERFLOW_DOC, OVERFLOW_WITNESS))
def test_generated_instances_never_raise(tmp_path, capsys, case):
    """solve, with and without --point, and verify --pe on small generated
    instances, weights among them -inf and +-10^309: every call returns
    an exit code and lets no exception escape."""
    doc, witness = case
    inst, wit = tmp_path / "instance.json", tmp_path / "witness.json"
    inst.write_text(json.dumps(doc))
    wit.write_text(json.dumps(witness))
    point = ",".join(map(str, doc["point"]))
    for argv in (
        ["solve", str(inst)],
        ["solve", str(inst), "--point", point],
        ["verify", str(inst), str(wit), "--pe"],
    ):
        code, _, _ = run(capsys, argv)
        assert code in (0, 1, 2), argv


@pytest.mark.parametrize(
    "argv",
    [["corpus", "cutlery"], ["solve", "CUTLERY", "--walrasian"], ["solve", "missing.json"]],
)
def test_console_script_exits_with_mains_code(tmp_path, capsys, monkeypatch, argv):
    """The console script calls entrypoint, which exits with the code main
    returns for the same arguments."""
    argv = [write_corpus(tmp_path, "cutlery") if a == "CUTLERY" else a for a in argv]
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["gpauction", *argv])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


def test_console_script_target_is_entrypoint():
    """pyproject.toml's gpauction script names the entrypoint above."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gpauction"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is entrypoint


def module_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gpauction.cli", "corpus", "cutlery"],
        capture_output=True, text=True, env=module_env(), cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "cutlery"


def test_closed_stdout_reader_exits_141(tmp_path):
    """A reader that closes stdout early gets the SIGPIPE status 141, not
    a traceback and the input-error code. The pipe's read end is closed
    before the process starts, so every write to it fails."""
    path = write_corpus(tmp_path, "cutlery")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gpauction.cli", "solve", path],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=module_env(), cwd=tmp_path, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "status" in proc.stderr
