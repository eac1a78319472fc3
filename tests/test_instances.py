import dataclasses
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gpauction.instances import (
    CORPUS_NAMES,
    ParseError,
    _rational,
    corpus_instance,
    parse_alloc_price,
    parse_instance,
    parse_price,
    print_bundles,
    print_instance,
    print_price,
)
from gpauction.model import NEG_INF, PriceVector, ValueGraph


class TestCorpus:
    def test_cutlery_shape(self):
        inst = corpus_instance("cutlery")
        assert inst.graph.n == 3 and inst.graph.is_complete()
        assert len(inst.valuations) == 3
        assert inst.supply == (1, 1, 1)
        assert inst.valuations[0].weights == (F(0),) * 3 + (F(1), F(0), F(0))

    def test_shifted_weights(self):
        inst = corpus_instance("cutlery-shifted")
        assert inst.valuations[0].weights == (F(1), F(1), F(1), F(2), F(1), F(1))

    def test_house_geometry(self):
        inst = corpus_instance("house")
        assert inst.graph.n == 5 and len(inst.graph.edges) == 6
        assert len(inst.faces) == 4
        assert inst.point.coords == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0)

    def test_idp_k4_geometry(self):
        inst = corpus_instance("idp-k4")
        assert inst.graph == ValueGraph.complete(4)
        assert inst.point.coords == (2, 2, 2, 2, 1, 1, 1, 1, 1, 1)
        assert len(inst.faces) == 4
        assert all(len(f.vertices) == 2 for f in inst.faces)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            corpus_instance("nope")

    @pytest.mark.parametrize("name", [*CORPUS_NAMES, ""])
    def test_round_trip_identity(self, name):
        """Every corpus instance, and one named "": an empty name is a
        name, written back and read back as it is."""
        inst = dataclasses.replace(corpus_instance(name or "cutlery"), name=name)
        once = parse_instance(json.loads(json.dumps(print_instance(inst))))
        assert once == inst
        twice = parse_instance(json.loads(json.dumps(print_instance(once))))
        assert twice == once


class TestParsing:
    def doc(self):
        return {
            "n": 2,
            "agents": [
                {"vertex_weights": ["1/2", "-inf"], "edge_weights": {"1-2": "-3"}}
            ],
            "supply": [1, 0],
        }

    def test_weights_parse_exactly(self):
        inst = parse_instance(self.doc())
        v = inst.valuations[0]
        assert v.weights[0] == F(1, 2)
        assert v.weights[1] == NEG_INF
        assert v.weights[2] == -3

    def test_float_weight_rejected(self):
        doc = self.doc()
        doc["agents"][0]["vertex_weights"][0] = 0.5
        with pytest.raises(ParseError, match="rational"):
            parse_instance(doc)

    def test_supply_above_m_rejected(self):
        doc = self.doc()
        doc["supply"] = [2, 0]
        with pytest.raises(ParseError, match="agent count"):
            parse_instance(doc)

    def test_bad_edge_key(self):
        doc = self.doc()
        doc["agents"][0]["edge_weights"] = {"2-1": "1"}
        with pytest.raises(ParseError, match="edge"):
            parse_instance(doc)

    def test_edge_outside_graph(self):
        doc = self.doc()
        doc["edges"] = []
        with pytest.raises(ParseError, match="not an edge"):
            parse_instance(doc)

    def test_negative_supply(self):
        doc = self.doc()
        doc["supply"] = [-1, 0]
        with pytest.raises(ParseError, match="supply"):
            parse_instance(doc)

    @pytest.mark.parametrize(
        "mode, printed",
        [({"walrasian": True}, {"walrasian": True}),
         ({"covering": True, "walrasian": False}, {"covering": True}),
         ({"covering": True, "walrasian": True}, {"walrasian": True, "covering": True}),
         ({"walrasian": False}, None)],
    )
    def test_mode_flags_round_trip(self, mode, printed):
        inst = parse_instance({**self.doc(), "mode": mode})
        doc = print_instance(inst)
        assert doc.get("mode") == printed
        assert parse_instance(json.loads(json.dumps(doc))) == inst

    def test_point_length_checked(self):
        doc = self.doc()
        doc["point"] = [1, 0]
        with pytest.raises(ParseError, match="point"):
            parse_instance(doc)


DIGITS = st.text("0123456789", min_size=1, max_size=12)


@st.composite
def rational_strings(draw):
    """Strings of the weight grammar: an optional sign, then an integer, a
    fraction or a plain decimal, leading zeros and zero denominators
    included."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    form = draw(st.sampled_from(["int", "frac", "dec"]))
    if form == "int":
        return sign + draw(DIGITS)
    if form == "frac":
        return f"{sign}{draw(DIGITS)}/{draw(DIGITS)}"
    return f"{sign}{draw(st.sampled_from(['', '0']) | DIGITS)}.{draw(DIGITS)}"


class TestRational:
    @given(rational_strings())
    def test_agrees_with_fraction(self, s):
        try:
            expected = F(s)
        except ZeroDivisionError:
            with pytest.raises(ParseError, match="cannot parse rational"):
                _rational(s, "w")
            return
        got = _rational(s, "w")
        assert got == expected and type(got) is F

    @pytest.mark.parametrize(
        "s, expected",
        [("-0", 0), ("+007", 7), ("0.25", F(1, 4)), (".5", F(1, 2)), ("-3/6", F(-1, 2)),
         ("00.10", F(1, 10)), (-300, -300), (12, 12)],
    )
    def test_examples(self, s, expected):
        got = _rational(s, "w")
        assert got == expected and type(got) is F

    @pytest.mark.parametrize("s", ["1e3", " 1", "1_0", "+-1", "\u0661", "1.", "", 1.5, True])
    def test_outside_the_grammar(self, s):
        with pytest.raises(ParseError, match="is not an exact rational"):
            _rational(s, "w")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="cannot parse rational '1/0'"):
            _rational("1/0", "w")


class TestPriceAndAllocationFiles:
    def test_price_round_trip(self):
        g = ValueGraph.complete(3)
        p = PriceVector(g, (F(0), F("1/3"), F(-2), F(1), F(0), F(5)))
        assert parse_price(print_price(p), g) == p

    def test_linear_only_round_trip(self):
        g = ValueGraph.complete(2)
        p = PriceVector(g, (F(1), F(2), F(0)), linear_only=True)
        assert parse_price(print_price(p), g) == p

    def test_alloc_price_parsing(self):
        g = ValueGraph.complete(3)
        doc = {
            "allocation": [[1, 2], [3], []],
            "price": {"vertex": ["0", "0", "0"], "edge": {"1-2": "1"}},
        }
        alloc, price = parse_alloc_price(doc, g)
        assert alloc == (frozenset({0, 1}), frozenset({2}), frozenset())
        assert price.entries[3] == 1

    def test_bundle_out_of_range(self):
        g = ValueGraph.complete(2)
        with pytest.raises(ParseError, match="out of range"):
            parse_alloc_price(
                {"allocation": [[3]], "price": {"vertex": ["0", "0"]}}, g
            )

    def test_print_bundles_one_based(self):
        assert print_bundles([frozenset({0, 2}), frozenset()]) == [[1, 3], []]
