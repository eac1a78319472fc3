"""Instance file parsing, printing, and the built-in example corpus.

JSON is the single on-disk format. Weights and prices travel as exact
rational strings ("3", "-1/2") or the literal "-inf"; vertices are
1-based in files and 0-based in memory; edge keys are "i-j" with i < j
in 1-based numbering.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .caps import DEFAULT_CAPS, Caps
from .model import (
    Allocation,
    Bundle,
    GPoint,
    NEG_INF,
    PriceVector,
    Valuation,
    ValueGraph,
    as_fraction,
    is_finite,
)
from .polytope import Face


class ParseError(ValueError):
    """Malformed instance or allocation file; message names the field."""


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# Edge keys are canonical, with no leading zero: "01-2" would name edge
# 1-2 a second time, and the later key would silently replace the earlier.
_EDGE_KEY = re.compile(r"([1-9]\d*)-([1-9]\d*)", re.ASCII)


def _rational(x: Any, where: str) -> Fraction:
    """A JSON int, or a string of model._RATIONAL's grammar, as the
    Fraction that Fraction(x) gives, read by as_fraction."""
    if not (isinstance(x, str) or _is_int(x)):
        raise ParseError(f"{where}: {x!r} is not an exact rational")
    try:
        return as_fraction(x)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _flag(doc: dict, key: str, where: str) -> bool:
    """An optional JSON boolean, false when absent. Any other value, the
    string "false" among them, is a ParseError."""
    x = doc.get(key, False)
    if not isinstance(x, bool):
        raise ParseError(f"{where}.{key}: need true or false, got {x!r}")
    return x


def _check_keys(doc: dict, keys: tuple[str, ...], where: str) -> None:
    """A key outside `keys` is a ParseError: a misspelt key would otherwise
    be dropped and its field read as absent."""
    for key in doc:
        if key not in keys:
            raise ParseError(f"{where}: unknown key {key!r}, expected one of {', '.join(keys)}")


def _weight(x: Any, where: str):
    if x == "-inf":
        return NEG_INF
    return _rational(x, where)


def _weight_str(w) -> str:
    return "-inf" if not is_finite(w) else str(w)


def _edge_key(e: tuple[int, int]) -> str:
    return f"{e[0] + 1}-{e[1] + 1}"


def _parse_edge_key(key: str, n: int, where: str) -> tuple[int, int]:
    match = isinstance(key, str) and _EDGE_KEY.fullmatch(key)
    if not match:
        raise ParseError(f"{where}: bad edge key {key!r}, expected 'i-j'")
    try:
        i, j = int(match[1]) - 1, int(match[2]) - 1
    except ValueError as exc:  # beyond Python's digit limit
        raise ParseError(f"{where}: bad edge key {key!r}, expected 'i-j'") from exc
    if not (i < n and j < n):
        raise ParseError(f"{where}: edge {key!r} out of range for n={n}")
    if i >= j:
        raise ParseError(f"{where}: bad edge key {key!r}, need i < j")
    return (i, j)


def _edge_entries(
    doc: Any, graph: ValueGraph, where: str, parse: Callable[[Any, str], Any]
) -> list:
    """The entries of an object keyed by 'i-j', in the graph's edge order
    and 0 where absent. A key that is not an edge of the graph is a
    ParseError, not a silently dropped entry."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: need an object keyed by 'i-j'")
    by_edge = {
        _parse_edge_key(k, graph.n, where): parse(x, f"{where}[{k}]") for k, x in doc.items()
    }
    for e in by_edge:
        if not graph.has_edge(*e):
            raise ParseError(f"{where}: {_edge_key(e)} is not an edge of the graph")
    return [by_edge.get(e, Fraction(0)) for e in graph.edges]


@dataclass(frozen=True)
class InstanceFile:
    """One auction (or geometry) instance: graph, agents, supply, optional
    mode flags and optional face/point data for the polytope oracles."""

    graph: ValueGraph
    valuations: tuple[Valuation, ...]
    supply: tuple[int, ...]
    m: int
    walrasian: bool = False
    covering: bool = False
    faces: Optional[tuple[Face, ...]] = None
    point: Optional[GPoint] = None
    name: Optional[str] = None


def parse_instance(doc: dict, caps: Caps = DEFAULT_CAPS) -> InstanceFile:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    _check_keys(
        doc, ("n", "edges", "agents", "supply", "m", "mode", "faces", "point", "name"), "instance"
    )
    n = doc.get("n")
    if not _is_int(n):
        raise ParseError("field 'n': missing or not an integer")
    if n < 1:
        raise ParseError("field 'n': must be at least 1")
    caps.check_n(n)
    if "edges" in doc:
        if not isinstance(doc["edges"], list):
            raise ParseError("field 'edges': need a list of 'i-j' keys")
        edges = tuple(
            _parse_edge_key(k, n, "field 'edges'") for k in doc["edges"]
        )
        try:
            graph = ValueGraph(n, edges)
        except ValueError as exc:
            raise ParseError(f"field 'edges': {exc}") from exc
    else:
        graph = ValueGraph.complete(n)

    agents = doc.get("agents", [])
    if not isinstance(agents, list):
        raise ParseError("field 'agents': need a list of objects")
    vals = []
    for b, agent in enumerate(agents):
        where = f"agents[{b}]"
        if not isinstance(agent, dict):
            raise ParseError(f"{where}: need an object")
        _check_keys(agent, ("vertex_weights", "edge_weights"), where)
        vw = agent.get("vertex_weights")
        if not isinstance(vw, list) or len(vw) != n:
            raise ParseError(f"{where}.vertex_weights: need a list of {n} entries")
        weights = [_weight(x, f"{where}.vertex_weights[{i}]") for i, x in enumerate(vw)]
        weights += _edge_entries(
            agent.get("edge_weights", {}), graph, f"{where}.edge_weights", _weight
        )
        vals.append(Valuation(graph, tuple(weights)))

    supply = doc.get("supply")
    if not isinstance(supply, list) or len(supply) != n:
        raise ParseError(f"field 'supply': need a list of {n} integers")
    for i, s in enumerate(supply):
        if not _is_int(s) or s < 0:
            raise ParseError(f"supply[{i}]: need a nonnegative integer")

    m = doc.get("m", len(vals))
    if not _is_int(m) or m < len(vals) or (m < 1 and any(supply)):
        raise ParseError("field 'm': inconsistent agent count")
    if any(s > m for s in supply):
        raise ParseError(f"supply exceeds the agent count m={m}")

    mode = doc.get("mode", {})
    if not isinstance(mode, dict):
        raise ParseError("field 'mode': must be an object")
    _check_keys(mode, ("walrasian", "covering"), "mode")

    faces = None
    if "faces" in doc:
        if not isinstance(doc["faces"], list):
            raise ParseError("field 'faces': need a list of faces")
        parsed = []
        for k, bundles in enumerate(doc["faces"]):
            where = f"faces[{k}]"
            if not isinstance(bundles, list):
                raise ParseError(f"{where}: need a list of bundles")
            vertices = [_bundle(S, graph, f"{where}[{t}]") for t, S in enumerate(bundles)]
            try:
                parsed.append(Face.from_bundles(graph, vertices))
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
        faces = tuple(parsed)

    if not isinstance(doc.get("name", ""), str):
        raise ParseError("field 'name': need a string")

    point = None
    if "point" in doc:
        coords = doc["point"]
        if (
            not isinstance(coords, list)
            or len(coords) != graph.d
            or not all(_is_int(c) for c in coords)
        ):
            raise ParseError(f"field 'point': need a list of {graph.d} integers")
        point = GPoint(graph, tuple(coords))

    return InstanceFile(
        graph=graph,
        valuations=tuple(vals),
        supply=tuple(supply),
        m=m,
        walrasian=_flag(mode, "walrasian", "mode"),
        covering=_flag(mode, "covering", "mode"),
        faces=faces,
        point=point,
        name=doc.get("name"),
    )


def print_instance(inst: InstanceFile) -> dict:
    g = inst.graph
    doc: dict[str, Any] = {}
    if inst.name is not None:
        doc["name"] = inst.name
    doc["n"] = g.n
    if not g.is_complete():
        doc["edges"] = [_edge_key(e) for e in g.edges]
    doc["agents"] = [
        {
            "vertex_weights": [_weight_str(w) for w in v.weights[: g.n]],
            "edge_weights": {
                _edge_key(e): _weight_str(v.weights[g.n + k])
                for k, e in enumerate(g.edges)
                if v.weights[g.n + k] != 0
            },
        }
        for v in inst.valuations
    ]
    doc["supply"] = list(inst.supply)
    if inst.m != len(inst.valuations):
        doc["m"] = inst.m
    mode = {"walrasian": inst.walrasian, "covering": inst.covering}
    if any(mode.values()):
        doc["mode"] = {key: True for key, on in mode.items() if on}
    if inst.faces is not None:
        doc["faces"] = [
            [sorted(i + 1 for i in q.as_bundle()) for q in f.vertices]
            for f in inst.faces
        ]
    if inst.point is not None:
        doc["point"] = list(inst.point.coords)
    return doc


def read_json(path: str) -> Any:
    """The JSON document in a file. An unreadable path (missing, a
    directory, no permission), invalid JSON, nesting too deep for the
    decoder, an integer too long for Python to convert and a key repeated
    within one object are ParseErrors naming the path; json alone would
    keep the last value of a repeated key."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ParseError(f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_instance(path: str, caps: Caps = DEFAULT_CAPS) -> InstanceFile:
    return parse_instance(read_json(path), caps)


def parse_price(doc: dict, graph: ValueGraph) -> PriceVector:
    if not isinstance(doc, dict):
        raise ParseError("price: need an object with 'vertex' and 'edge'")
    _check_keys(doc, ("vertex", "edge", "linear_only"), "price")
    vw = doc.get("vertex")
    if not isinstance(vw, list) or len(vw) != graph.n:
        raise ParseError(f"price.vertex: need a list of {graph.n} rationals")
    entries = [_rational(x, f"price.vertex[{i}]") for i, x in enumerate(vw)]
    entries += _edge_entries(doc.get("edge", {}), graph, "price.edge", _rational)
    return PriceVector(graph, tuple(entries), linear_only=_flag(doc, "linear_only", "price"))


def print_price(p: PriceVector) -> dict:
    g = p.graph
    doc: dict[str, Any] = {
        "vertex": [str(x) for x in p.entries[: g.n]],
        "edge": {
            _edge_key(e): str(p.entries[g.n + k])
            for k, e in enumerate(g.edges)
            if p.entries[g.n + k] != 0
        },
    }
    if p.linear_only:
        doc["linear_only"] = True
    return doc


def parse_bundles(raw: Any, graph: ValueGraph, where: str) -> Allocation:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: need a list of bundles")
    return tuple(_bundle(items, graph, f"{where}[{b}]") for b, items in enumerate(raw))


def _bundle(items: Any, graph: ValueGraph, where: str) -> Bundle:
    """A list of distinct 1-based item numbers, each a JSON integer in
    1..n. A bundle is a set, so an item listed twice is an input error
    rather than read as listed once."""
    if not isinstance(items, list) or not all(_is_int(i) for i in items):
        raise ParseError(f"{where}: bad bundle {items!r}, need a list of integers")
    seen = set()
    for i in items:
        if not 1 <= i <= graph.n:
            raise ParseError(f"{where}: item {i} out of range")
        if i in seen:
            raise ParseError(f"{where}: item {i} listed twice")
        seen.add(i)
    return frozenset(i - 1 for i in seen)


def print_bundles(alloc: Sequence[Bundle]) -> list[list[int]]:
    return [sorted(i + 1 for i in S) for S in alloc]


def parse_alloc_price(doc: dict, graph: ValueGraph) -> tuple[Allocation, PriceVector]:
    if not isinstance(doc, dict) or "allocation" not in doc or "price" not in doc:
        raise ParseError("allocation+price file needs 'allocation' and 'price'")
    alloc = parse_bundles(doc["allocation"], graph, "allocation")
    price = parse_price(doc["price"], graph)
    return alloc, price


# The built-in instances, as instance documents: the triangle auction where
# only a quadratic CE exists, its shift with a pricing equilibrium, the house
# graph whose edge faces defeat vertex-sum decomposition, and the K4 point
# that has no integer decomposition.
_CORPUS = {
    "cutlery": {
        "n": 3,
        "agents": [
            {"vertex_weights": [0, 0, 0], "edge_weights": {"1-2": 1}},
            {"vertex_weights": [0, 0, 0], "edge_weights": {"1-3": 1}},
            {"vertex_weights": [0, 0, 0], "edge_weights": {"2-3": 1}},
        ],
        "supply": [1, 1, 1],
    },
    "cutlery-shifted": {
        "n": 3,
        "agents": [
            {"vertex_weights": [1, 1, 1], "edge_weights": {"1-2": 2, "1-3": 1, "2-3": 1}},
            {"vertex_weights": [1, 1, 1], "edge_weights": {"1-2": 1, "1-3": 2, "2-3": 1}},
            {"vertex_weights": [1, 1, 1], "edge_weights": {"1-2": 1, "1-3": 1, "2-3": 2}},
        ],
        "supply": [1, 1, 1],
    },
    "house": {
        "n": 5,
        "edges": ["1-2", "1-4", "1-5", "2-3", "3-4", "4-5"],
        "supply": [1, 1, 1, 1, 1],
        "m": 4,
        "faces": [[[2], [1, 3]], [[3], [2, 4]], [[5], [1]], [[5], [4]]],
        "point": [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    },
    "idp-k4": {
        "n": 4,
        "supply": [2, 2, 2, 2],
        "m": 4,
        "faces": [[[], [4]], [[2, 3], [1, 3]], [[2, 3, 4], [1, 3, 4]], [[1, 2], [1, 2, 4]]],
        "point": [2, 2, 2, 2, 1, 1, 1, 1, 1, 1],
    },
}
CORPUS_NAMES = tuple(_CORPUS)


def corpus_instance(name: str) -> InstanceFile:
    """The built-in instance of this name, read by parse_instance."""
    if name not in _CORPUS:
        raise ParseError(f"unknown corpus name {name!r}; choose from {CORPUS_NAMES}")
    return parse_instance({**_CORPUS[name], "name": name})
