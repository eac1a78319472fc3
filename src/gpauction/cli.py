"""Command-line frontend.

Machine-readable JSON goes to stdout, human-readable tables to stderr,
so output can be piped. Exit codes are a stable contract: 0 when the
requested object exists / the verification passes, 1 on input errors,
2 when nonexistence or failure is certified, 3 when an internal guard on
a verdict fails.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional, Sequence

from .caps import Caps, CapExceededError, DEFAULT_CAPS
from .demand import demand_set, verify_ce, verify_pe
from .instances import (
    CORPUS_NAMES,
    InstanceFile,
    ParseError,
    corpus_instance,
    load_instance,
    parse_alloc_price,
    parse_price,
    print_bundles,
    print_instance,
    print_price,
    read_json,
)
from .linprog import InternalError
from .model import GPoint, ValueGraph, aggregate, char_vector, project
from .polytope import bundle_table, enumerate_decompositions
from .pricing import (
    CEResult,
    FOUND,
    ce_for_covering,
    ce_price_at_point,
    check_covering,
    optimal_ce,
)

EXIT_OK, EXIT_INPUT, EXIT_NOT_FOUND, EXIT_INTERNAL = 0, 1, 2, 3


def _err(msg: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _table(lines: list[tuple[str, str]]) -> None:
    width = max((len(k) for k, _ in lines), default=0)
    for k, v in lines:
        print(f"{k.ljust(width)}  {v}", file=sys.stderr)


def _caps_from(args) -> Caps:
    caps = Caps(max_n=args.max_n, max_m=args.max_m)
    if caps.max_n > DEFAULT_CAPS.max_n or caps.max_m > DEFAULT_CAPS.max_m:
        print(
            f"warning: caps raised to n<={caps.max_n}, m<={caps.max_m}; "
            "running time grows exponentially",
            file=sys.stderr,
        )
    return caps


_COORD = re.compile(r"\d+", re.ASCII)


def _parse_point(text: str, graph: ValueGraph) -> GPoint:
    """Comma-separated coordinates, each plain ASCII digits: no sign, space
    or underscore, which int() would accept."""
    parts = text.split(",")
    bad = [x for x in parts if not _COORD.fullmatch(x)]
    if bad:
        raise ParseError(f"--point: bad coordinate {bad[0]!r}, need digits 0-9")
    coords = tuple(int(x) for x in parts)
    if len(coords) != graph.d:
        raise ParseError(f"--point: need {graph.d} comma-separated integers")
    return GPoint(graph, coords)


def _result_doc(res: CEResult, walrasian: bool) -> dict:
    doc = {"status": res.status, "walrasian": walrasian}
    if res.status == FOUND:
        doc["revenue"] = str(res.revenue)
        doc["point"] = list(res.point.coords)
        doc["allocation"] = print_bundles(res.allocation)
        doc["price"] = print_price(res.price)
    elif res.point is not None:
        doc["point"] = list(res.point.coords)
    return doc


def _emit_result(res: CEResult, walrasian: bool) -> int:
    lines = [("status", res.status)]
    if res.status == FOUND:
        lines.append(("revenue", str(res.revenue)))
        lines.append(("point", ",".join(map(str, res.point.coords))))
        for b, S in enumerate(res.allocation):
            pay = res.price.of_bundle(S)
            lines.append(
                (f"agent {b + 1}", f"{sorted(i + 1 for i in S)} pays {pay}")
            )
        g = res.price.graph
        lines.append(
            ("price", " ".join(
                f"{lbl}={x}" for lbl, x in zip(g.coord_labels(), res.price.entries)
            ))
        )
    _table(lines)
    print(json.dumps(_result_doc(res, walrasian), indent=2))
    return EXIT_OK if res.status == FOUND else EXIT_NOT_FOUND


def _covering_point(inst: InstanceFile) -> GPoint:
    """Canonical compatible point: give each supplied vertex to the first
    agent bidding on it, then lift each block to a clique with the common
    supply multiplicity."""
    g = inst.graph
    supports = check_covering(inst.valuations)
    levels = {s for s in inst.supply if s}
    r = levels.pop() if levels else 0
    blocks: list[set[int]] = [set() for _ in inst.valuations]
    for i in range(g.n):
        if inst.supply[i] == 0:
            continue
        owner = next(b for b, sup in enumerate(supports) if i in sup)
        blocks[owner].add(i)
    total = GPoint.zero(g)
    for block in blocks:
        if block:
            total = total + char_vector(block, g).scale(r)
    return total


def cmd_solve(args) -> int:
    caps = _caps_from(args)
    inst = load_instance(args.instance, caps)
    if not inst.valuations:
        return _err(f"{args.instance}: no agents to solve for")
    walrasian = args.walrasian or inst.walrasian
    covering = inst.covering or not all(v.is_finite() for v in inst.valuations)
    point = None if args.point is None else _parse_point(args.point, inst.graph)
    if point is not None and project(point) != inst.supply:
        return _err(f"point projects to {project(point)}, not the supply {inst.supply}")
    if covering:
        if walrasian:
            return _err("covering instances support quadratic pricing only")
        a = point if point is not None else _covering_point(inst)
        res = ce_for_covering(inst.valuations, inst.supply, a, caps=caps)
    elif point is not None:
        res = ce_price_at_point(
            inst.valuations, point, walrasian=walrasian, caps=caps
        )
    else:
        res = optimal_ce(
            inst.valuations, inst.supply, walrasian=walrasian, caps=caps
        )
    if res.status != FOUND and walrasian:
        print("no Walrasian equilibrium", file=sys.stderr)
    return _emit_result(res, walrasian)


def cmd_verify(args) -> int:
    caps = _caps_from(args)
    inst = load_instance(args.instance, caps)
    doc = read_json(args.witness)
    alloc, price = parse_alloc_price(doc, inst.graph)
    if len(alloc) != len(inst.valuations):
        return _err(
            f"allocation has {len(alloc)} bundles for {len(inst.valuations)} agents"
        )
    if args.pe:
        verdict = verify_pe(inst.valuations, alloc, price, inst.supply, caps)
        ce = verdict.ce
    else:
        # verify_pe makes this check itself, with the same message.
        sold = project(aggregate(inst.graph, alloc))
        if sold != inst.supply:
            return _err(f"allocation sells {sold} but the supply is {inst.supply}")
        verdict = verify_ce(inst.valuations, alloc, price, caps)
        ce = verdict
    lines = [("competitive equilibrium", "pass" if ce.ok else "FAIL")]
    doc_out = {"ce": ce.ok, "revenue": str(ce.revenue), "failures": []}
    for w in ce.failures:
        lines.append(
            (
                f"agent {w.agent + 1}",
                f"assigned {sorted(i + 1 for i in w.assigned)} "
                f"(utility {w.assigned_utility}) but prefers "
                f"{sorted(i + 1 for i in w.better)} (utility {w.better_utility})",
            )
        )
        doc_out["failures"].append(
            {
                "agent": w.agent + 1,
                "assigned": sorted(i + 1 for i in w.assigned),
                "better": sorted(i + 1 for i in w.better),
                "better_utility": str(w.better_utility),
            }
        )
    if args.pe:
        lines.append(("pricing equilibrium", "pass" if verdict.ok else "FAIL"))
        lines.append(("revenue", str(verdict.revenue)))
        lines.append(("seller best revenue", str(verdict.seller_best_revenue)))
        doc_out["pe"] = verdict.ok
        doc_out["seller_best_revenue"] = str(verdict.seller_best_revenue)
    _table(lines)
    print(json.dumps(doc_out, indent=2))
    return EXIT_OK if verdict.ok else EXIT_NOT_FOUND


def cmd_demand(args) -> int:
    caps = _caps_from(args)
    inst = load_instance(args.instance, caps)
    doc = read_json(args.price)
    if isinstance(doc, dict) and "price" in doc:
        doc = doc["price"]
    price = parse_price(doc, inst.graph)
    out = []
    for b, v in enumerate(inst.valuations):
        ds = demand_set(v, price, caps)
        bundles = sorted(print_bundles(sorted(ds.bundles, key=sorted)))
        out.append({"agent": b + 1, "utility": str(ds.utility_value), "bundles": bundles})
        _table([(f"agent {b + 1}", f"utility {ds.utility_value}: {bundles}")])
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_decompose(args) -> int:
    caps = _caps_from(args)
    inst = load_instance(args.instance, caps)
    if args.point is not None:
        point = _parse_point(args.point, inst.graph)
    elif inst.point is not None:
        point = inst.point
    else:
        return _err("no point: pass --point or use an instance file with one")
    m = inst.m if args.m is None else args.m
    if m < 1:
        return _err("need a positive number of parts (--m or agents in the file)")
    bundles = bundle_table(point.graph)
    found = [
        sorted(print_bundles([bundles[s] for s in masks]))
        for _, masks in enumerate_decompositions(point, m, caps)
    ]
    _table([("point", ",".join(map(str, point.coords))), ("parts", str(m)),
            ("decompositions", str(len(found)))])
    print(json.dumps({"point": list(point.coords), "m": m, "decompositions": found}, indent=2))
    return EXIT_OK if found else EXIT_NOT_FOUND


def cmd_corpus(args) -> int:
    inst = corpus_instance(args.name)
    print(json.dumps(print_instance(inst), indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error); argparse's own 2 would read as a
    certified negative."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it."""
    ap = _Parser(
        prog="gpauction",
        description="Competitive equilibria for auctions with quadratic "
        "valuations and quadratic anonymous pricing.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-n", type=int, default=DEFAULT_CAPS.max_n,
                       help="raise the item-count enumeration cap")
        p.add_argument("--max-m", type=int, default=DEFAULT_CAPS.max_m,
                       help="raise the agent-count enumeration cap")

    p = sub.add_parser("solve", help="compute an optimal competitive equilibrium")
    p.add_argument("instance")
    p.add_argument("--walrasian", action="store_true",
                   help="restrict to linear pricing (edge prices zero)")
    p.add_argument("--point", help="comma-separated aggregate point to price at")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a CE (and with --pe, a PE) witness")
    p.add_argument("instance")
    p.add_argument("witness", help="JSON file with 'allocation' and 'price'")
    p.add_argument("--pe", action="store_true", help="also verify the seller side")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demand", help="per-agent demand sets at a price")
    p.add_argument("instance")
    p.add_argument("price", help="JSON file with a 'price' object")
    common(p)
    p.set_defaults(func=cmd_demand)

    p = sub.add_parser("decompose", help="enumerate splits of a point into bundles")
    p.add_argument("instance")
    p.add_argument("--point", help="comma-separated point (default: the file's)")
    p.add_argument("--m", type=int, default=None, help="number of parts")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("corpus", help="print a built-in instance")
    p.add_argument("name", choices=CORPUS_NAMES)
    p.set_defaults(func=cmd_corpus)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        return _err(f"{exc} (raise with --max-n/--max-m)")
    except ValueError as exc:
        return _err(str(exc))
    except InternalError as exc:
        return _err(f"internal: {exc}", EXIT_INTERNAL)


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
