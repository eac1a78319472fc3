"""The benchmark's workloads: input generators, entry-point calls and
correctness checks.

Inputs are generated here, not by ``gpauction.randgen``, so that no
change to the program can change them. Every input is an instance
document in the documented JSON format (plus, for ``verify-pe``, an
allocation+price witness document) and is loaded with
``gpauction.instances.parse_instance`` during set-up.

Each workload is a fixed corpus: a list of *strata* (the size mix), each
with ``variants`` inputs drawn from random streams named after the
workload, stratum and variant. Every input has a recorded reference.
A run's ``--seed`` sets the order in which the corpus is visited; it
does not change the corpus. Two ways of letting the seed change the
corpus were measured and rejected:

- Fresh random inputs per seed. The weights alone give per-input cost a
  log-standard-deviation of 0.5-0.7, so the p50 and the tail of a run
  that fits in its time moved 10-30% from seed to seed.
- Leaving one seed-chosen input out. The size mixes span two to three
  orders of magnitude, so adjacent order statistics lie 5-15% apart,
  and dropping one input moved p50 by that much.

Either way the spread would be wider than any useful regression bound.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

WEIGHT_LO, WEIGHT_HI = -5, 5


def edges(n: int) -> list[tuple[int, int]]:
    """Edges of the complete graph in the program's coordinate order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def edge_key(e: tuple[int, int]) -> str:
    return f"{e[0] + 1}-{e[1] + 1}"


def agent_doc(rng: random.Random, n: int, support=None) -> dict:
    """Random integer weights in [WEIGHT_LO, WEIGHT_HI]; with ``support``,
    "-inf" on every vertex outside it and every edge leaving it."""
    inside = set(range(n)) if support is None else set(support)

    def w(ok: bool) -> str:
        return str(rng.randint(WEIGHT_LO, WEIGHT_HI)) if ok else "-inf"

    return {
        "vertex_weights": [w(i in inside) for i in range(n)],
        "edge_weights": {
            edge_key(e): w(e[0] in inside and e[1] in inside) for e in edges(n)
        },
    }


def lift(n: int, blocks: list[set[int]], r: int) -> list[int]:
    """r times the sum of the characteristic vectors of disjoint blocks."""
    coords = [r if any(i in b for b in blocks) else 0 for i in range(n)]
    coords += [r if any(i in b and j in b for b in blocks) else 0 for i, j in edges(n)]
    return coords


def partition(rng: random.Random, items: list[int], blocks: int) -> list[set[int]]:
    rng.shuffle(items)
    out: list[set[int]] = [set() for _ in range(blocks)]
    for k, i in enumerate(items):
        out[k if k < blocks else rng.randrange(blocks)].add(i)
    return out


def clique_blocks(rng: random.Random, n: int, m: int):
    """Common multiplicity r, a nonempty supplied vertex set, and s <= m/r
    disjoint blocks covering it: the point r * sum(a_block) is a sum of m
    bundles."""
    r = rng.randint(1, m)
    supplied = [i for i in range(n) if rng.random() < 0.7] or [rng.randrange(n)]
    s = rng.randint(1, min(m // r, len(supplied)))
    return r, supplied, partition(rng, list(supplied), s)


def gen_point_pricing(rng: random.Random, spec) -> dict:
    n, m, kind = spec
    agents = [agent_doc(rng, n) for _ in range(m)]
    if kind == "nested":
        # Nested-chain lift: edge entries min(b_i, b_j).
        supply = [rng.randint(0, m) for _ in range(n)]
        point = supply + [min(supply[i], supply[j]) for i, j in edges(n)]
    else:
        r, supplied, blocks = clique_blocks(rng, n, m)
        supply = [r if i in supplied else 0 for i in range(n)]
        point = lift(n, blocks, r)
    return {"instance": {"n": n, "agents": agents, "supply": supply, "point": point}}


def gen_optimal_ce(rng: random.Random, spec) -> dict:
    n, m, s, walrasian = spec
    doc = {"n": n, "agents": [agent_doc(rng, n) for _ in range(m)], "supply": [s] * n}
    if walrasian:
        doc["mode"] = {"walrasian": True}
    return {"instance": doc}


def gen_covering(rng: random.Random, spec) -> dict:
    """Clique bids whose supports cover every item, plus a compatible
    point: r copies of each block, each copy owned by a distinct agent
    whose support contains the block."""
    n, m = spec
    r, supplied, blocks = clique_blocks(rng, n, m)
    owners = rng.sample(range(m), len(blocks) * r)
    supports: list[set[int]] = [set() for _ in range(m)]
    for k, b in enumerate(owners):
        supports[b] |= blocks[k % len(blocks)]
    for i in range(n):
        if not any(i in sup for sup in supports):
            supports[rng.randrange(m)].add(i)
    for sup in supports:
        sup.update(i for i in range(n) if rng.random() < 0.25)
    doc = {
        "n": n,
        "agents": [agent_doc(rng, n, sup) for sup in supports],
        "supply": [r if i in supplied else 0 for i in range(n)],
        "mode": {"covering": True},
        "point": lift(n, blocks, r),
    }
    return {"instance": doc}


def gen_verify_pe(rng: random.Random, spec) -> dict:
    """A random split of a uniform supply among the agents. Half the
    witnesses, at random, price it and value it at random, so they
    usually fail. The others use a linear price and give each agent a
    bonus on its own items over that price: every agent demands its
    bundle and every aggregate earns the same revenue, so the witness is
    a pricing equilibrium by construction."""
    n, m, s = spec
    alloc: list[list[int]] = [[] for _ in range(m)]
    for i in range(n):
        for b in rng.sample(range(m), s):
            alloc[b].append(i + 1)
    es = edges(n)
    if rng.random() < 0.5:
        price = [rng.randint(WEIGHT_LO, WEIGHT_HI) for _ in range(n + len(es))]
        agents = [agent_doc(rng, n) for _ in range(m)]
    else:
        price = [rng.randint(-2, 2) for _ in range(n)] + [0] * len(es)
        agents = [
            {
                "vertex_weights": [str(price[i] + (1 if i + 1 in bundle else -3)) for i in range(n)],
                "edge_weights": {},
            }
            for bundle in alloc
        ]
    witness = {
        "allocation": alloc,
        "price": {
            "vertex": [str(x) for x in price[:n]],
            "edge": {edge_key(e): str(price[n + k]) for k, e in enumerate(es)},
        },
    }
    return {"instance": {"n": n, "agents": agents, "supply": [s] * n}, "witness": witness}


def digest(docs: dict) -> str:
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- checks


def canon_ce(res) -> dict:
    """The fields of a CEResult that must equal the reference. The price
    is certified instead, so another optimal LP vertex still passes."""
    out = {"status": res.status, "point": list(res.point.coords) if res.point else None}
    if res.allocation is not None:
        out["revenue"] = str(res.revenue)
        out["allocation"] = [sorted(i + 1 for i in S) for S in res.allocation]
    return out


def certify_ce(gp, vs, res, point=None, supply=None, supports=None) -> list[str]:
    """Re-certify a FOUND result: every agent demands its bundle, the
    bundles sum to the point, and the price earns the stated revenue."""
    if res.status != gp.pricing.FOUND:
        return []
    errs = []
    g = res.point.graph
    if not gp.demand.verify_ce(vs, res.allocation, res.price).ok:
        errs.append("verify_ce rejects the allocation at the price")
    if gp.model.aggregate(g, res.allocation) != res.point:
        errs.append("allocation does not sum to the point")
    if res.price.dot(res.point) != res.revenue:
        errs.append("price . point differs from the revenue")
    if point is not None and res.point != point:
        errs.append("result point differs from the requested point")
    if supply is not None and tuple(res.point.coords[: g.n]) != tuple(supply):
        errs.append("point does not project onto the supply")
    if supports is not None and not all(
        S <= sup for S, sup in zip(res.allocation, supports)
    ):
        errs.append("a bundle leaves its agent's support")
    return errs


# ------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    variants: int
    generate: Callable[[random.Random, Any], dict]
    prepare: Callable  # (gp, docs, workdir, key) -> case
    call: Callable  # (gp, case) -> raw result
    canon: Callable  # (raw) -> JSON-able output
    certify: Callable  # (gp, case, raw) -> list of errors

    def all_keys(self) -> list[str]:
        return [f"{k}/{j}" for k in range(len(self.strata)) for j in range(self.variants)]

    def keys(self, seed: int) -> list[str]:
        """The inputs of a run: the whole corpus, in a seed-chosen order."""
        keys = self.all_keys()
        random.Random(seed).shuffle(keys)
        return keys

    def docs(self, key: str) -> dict:
        k = int(key.split("/")[0])
        return self.generate(random.Random(f"{self.name}/{key}"), self.strata[k])


def _prep_instance(gp, docs, workdir, key):
    return gp.instances.parse_instance(docs["instance"])


def _prep_verify(gp, docs, workdir, key):
    inst = gp.instances.parse_instance(docs["instance"])
    gp.instances.parse_alloc_price(docs["witness"], inst.graph)
    paths = []
    for part in ("instance", "witness"):
        path = os.path.join(workdir, f"{key.replace('/', '-')}-{part}.json")
        with open(path, "w") as fh:
            json.dump(docs[part], fh)
        paths.append(path)
    return inst, paths


def _call_verify(gp, case):
    _, (ipath, wpath) = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gp.cli.main(["verify", ipath, wpath, "--pe"])
    return code, out.getvalue()


def _canon_verify(raw):
    code, text = raw
    return {"exit": code, "verdict": json.loads(text)}


def _certify_verify(gp, case, raw):
    code, text = raw
    verdict = json.loads(text)
    if (code == 0) != bool(verdict.get("pe")):
        return ["exit code disagrees with the pe verdict"]
    return []


# One point per call and no search: the row-generation LP dominates.
POINT_PRICING = Workload(
    name="point-pricing",
    strata=tuple((n, m, kind) for n in range(2, 6) for m in range(1, 6) for kind in ("nested", "clique")),
    variants=2,
    generate=gen_point_pricing,
    prepare=_prep_instance,
    call=lambda gp, inst: gp.pricing.ce_price_at_point(inst.valuations, inst.point),
    canon=canon_ce,
    certify=lambda gp, inst, res: certify_ce(gp, inst.valuations, res, point=inst.point),
)

# The only workload that runs the candidate-point search; the n = 4 rungs
# are LP-heavy, the m = 4-6 rungs enumeration-heavy.
OPTIMAL_CE = Workload(
    name="optimal-ce",
    strata=tuple(
        (n, m, s, w)
        for n, m, s in ((3, 3, 1), (4, 2, 1), (4, 3, 1), (3, 4, 2), (3, 6, 2))
        for w in (False, True)
    ),
    variants=3,
    generate=gen_optimal_ce,
    prepare=_prep_instance,
    call=lambda gp, inst: gp.pricing.optimal_ce(
        inst.valuations, inst.supply, walrasian=inst.walrasian
    ),
    canon=canon_ce,
    certify=lambda gp, inst, res: certify_ce(gp, inst.valuations, res, supply=inst.supply),
)

# The same LP layer used through big-M substitution, M doubling and the
# margin LP pinned by an equality row.
COVERING_CE = Workload(
    name="covering-ce",
    strata=tuple((n, m) for n in range(2, 6) for m in range(1, 6)),
    variants=3,
    generate=gen_covering,
    prepare=_prep_instance,
    call=lambda gp, inst: gp.pricing.ce_for_covering(inst.valuations, inst.supply, inst.point),
    canon=canon_ce,
    certify=lambda gp, inst, res: certify_ce(
        gp, inst.valuations, res, point=inst.point, supports=[v.support for v in inst.valuations]
    ),
)

# The only path through cli, instances and seller_demand; no LP runs.
VERIFY_PE = Workload(
    name="verify-pe",
    strata=((4, 4, 1), (3, 6, 3), (4, 4, 2), (4, 5, 2), (4, 6, 2), (5, 3, 1), (5, 4, 1)),
    variants=5,
    generate=gen_verify_pe,
    prepare=_prep_verify,
    call=_call_verify,
    canon=_canon_verify,
    certify=_certify_verify,
)

WORKLOADS = {w.name: w for w in (POINT_PRICING, OPTIMAL_CE, COVERING_CE, VERIFY_PE)}
