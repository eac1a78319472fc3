"""Brute-force references, independent of the production code they check.

``reference_lp_solve`` is an exact two-phase tableau simplex on
``Fraction``s with the general front end (LE/GE/EQ rows, free or
nonnegative variables, fixed variables) that the production core, a
standard-form integer simplex, does without. ``build_ce_lp`` states the
full revenue LP at a point in that form.

``oracle_optimal_revenue`` enumerates every ordered allocation (bundle
per agent) whose aggregate projects onto the supply, decides
CE-supportability of each by solving the full constraint system (one row
per agent and bundle), and maximizes the revenue objective over the
supportable ones. The full LP is built here rather than imported, so the
reference stays independent of the column-generation dual LP in
``gpauction.pricing`` that it checks. ``box_optimal_ce`` is the
point-by-point search over the whole candidate box, the reference for the
welfare-ordered search of ``optimal_ce``. ``dense_pivot`` is the
production core's pivot without its sparse path, the reference for it.
``reference_best_splits`` is the split fold on bundles (frozensets),
each split's distinct bundles counted and sorted by ``bundle_key``, the
reference for the fold of ``gpauction.demand`` on bitmasks.
"""
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from gpauction.demand import candidate_points
from gpauction.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, InternalError, LPResult
from gpauction.model import (
    NEG_INF,
    Allocation,
    Bundle,
    GPoint,
    Valuation,
    aggregate,
    char_vector,
    common_tables,
    is_finite,
    project,
    value,
)
from gpauction.polytope import bundle_table, vertices_P
from gpauction.pricing import FOUND, NO_POINT_FOUND, CEResult, ce_price_at_point

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)


@dataclass(frozen=True)
class ReferenceLP:
    """max objective . x subject to rows of (coeffs, relation, rhs).

    ``nonneg[k]`` restricts variable k to be nonnegative (default: free).
    ``fixings`` pins variables to constants before solving, e.g. edge
    prices to zero for linear-pricing mode.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    nonneg: Optional[tuple[bool, ...]] = None
    fixings: Optional[dict[int, Fraction]] = None

    def __post_init__(self):
        nvars = len(self.objective)
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != nvars:
                raise ValueError("row length does not match objective length")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
        if self.nonneg is not None and len(self.nonneg) != nvars:
            raise ValueError("nonneg length does not match objective length")
        if self.fixings:
            for k in self.fixings:
                if not 0 <= k < nvars:
                    raise ValueError(f"fixing for unknown variable {k}")


def _ref_bland(rows, obj, basis, allowed) -> str:
    """Primal simplex iterations on an augmented tableau (rhs last).

    obj holds reduced costs; obj[-1] is minus the objective value.
    """
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _ref_pivot(rows, obj, basis, leave, enter)


def _ref_pivot(rows, obj, basis, li: int, ej: int) -> None:
    prow = rows[li]
    piv = prow[ej]
    if piv != 1:
        prow[:] = [x / piv for x in prow]
    for r in rows:
        if r is prow:
            continue
        f = r[ej]
        if f:
            r[:] = [a - f * b if b else a for a, b in zip(r, prow)]
    f = obj[ej]
    if f:
        obj[:] = [a - f * b if b else a for a, b in zip(obj, prow)]
    basis[li] = ej


def dense_pivot(rows: list[list[int]], D: int, r: int, s: int) -> int:
    """The fraction-free pivot of ``gpauction.linprog._pivot`` in its
    dense form, every touched row rebuilt entry by entry: every other row
    i becomes (p * row_i - row_i[s] * row_r) / D. Returns p."""
    prow = rows[r]
    p = prow[s]
    for row in rows:
        if row is prow:
            continue
        f = row[s]
        if f:
            row[:] = [(p * a - f * b) // D for a, b in zip(row, prow)]
        elif p != D:
            row[:] = [p * a // D for a in row]
    return p


def reference_lp_solve(lp: ReferenceLP) -> LPResult:
    """Solve exactly; returns OPTIMAL with value and a witness, or a
    certified INFEASIBLE / UNBOUNDED status."""
    nvars = len(lp.objective)
    fixings = {k: Fraction(v) for k, v in (lp.fixings or {}).items()}
    nonneg = lp.nonneg or (False,) * nvars

    # Column layout for the unfixed variables: nonneg ones get a single
    # column, free ones a (plus, minus) pair.
    col_of: dict[int, tuple[int, Optional[int]]] = {}
    ncols = 0
    for k in range(nvars):
        if k in fixings:
            continue
        if nonneg[k]:
            col_of[k] = (ncols, None)
            ncols += 1
        else:
            col_of[k] = (ncols, ncols + 1)
            ncols += 2

    const = sum(
        (Fraction(lp.objective[k]) * v for k, v in fixings.items()), Fraction(0)
    )

    def expand(coeffs) -> list:
        out = [Fraction(0)] * ncols
        for k, c in enumerate(coeffs):
            if not c or k in fixings:
                continue
            cq = Fraction(c)
            pos, neg = col_of[k]
            out[pos] += cq
            if neg is not None:
                out[neg] -= cq
        return out

    # Normalized rows with rhs >= 0; all-zero rows checked and dropped.
    prepared: list[tuple[list, str]] = []
    for coeffs, rel, rhs in lp.rows:
        b = Fraction(rhs) - sum(
            (Fraction(coeffs[k]) * v for k, v in fixings.items()), Fraction(0)
        )
        body = expand(coeffs)
        if not any(body):
            sat = (b >= 0) if rel == LE else (b <= 0) if rel == GE else (b == 0)
            if not sat:
                return LPResult(INFEASIBLE)
            continue
        if b < 0:
            body = [-a for a in body]
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        prepared.append((body + [b], rel))

    nslack = sum(1 for _, rel in prepared if rel != EQ)
    nart = sum(1 for _, rel in prepared if rel != LE)
    total = ncols + nslack + nart
    zero, one = Fraction(0), Fraction(1)

    rows: list[list] = []
    basis: list[int] = []
    art_cols: list[int] = []
    s_at, a_at = ncols, ncols + nslack
    for body_rhs, rel in prepared:
        row = body_rhs[:-1] + [zero] * (nslack + nart) + [body_rhs[-1]]
        if rel == LE:
            row[s_at] = one
            basis.append(s_at)
            s_at += 1
        elif rel == GE:
            row[s_at] = -one
            row[a_at] = one
            basis.append(a_at)
            art_cols.append(a_at)
            s_at += 1
            a_at += 1
        else:
            row[a_at] = one
            basis.append(a_at)
            art_cols.append(a_at)
            a_at += 1
        rows.append(row)

    allowed = [True] * total
    art_set = set(art_cols)

    if art_cols:
        # Phase 1: maximize minus the sum of artificials, priced out for
        # the initial artificial basis.
        obj = [zero] * (total + 1)
        for j in art_cols:
            obj[j] = -one
        for i, bj in enumerate(basis):
            if bj in art_set:
                obj[:] = [a + b for a, b in zip(obj, rows[i])]
        if _ref_bland(rows, obj, basis, allowed) != OPTIMAL:
            raise InternalError("phase 1 unbounded although its objective is at most 0")
        if obj[-1] != 0:
            return LPResult(INFEASIBLE)
        # Drive leftover zero-valued artificials out of the basis.
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] in art_set:
                ej = next(
                    (j for j in range(ncols + nslack) if rows[i][j]), None
                )
                if ej is None:
                    del rows[i], basis[i]  # redundant row
                else:
                    _ref_pivot(rows, obj, basis, i, ej)
        for j in art_cols:
            allowed[j] = False

    # Phase 2 with the real objective.
    obj = [zero] * (total + 1)
    for k in range(nvars):
        if k in fixings or not lp.objective[k]:
            continue
        cq = Fraction(lp.objective[k])
        pos, neg = col_of[k]
        obj[pos] += cq
        if neg is not None:
            obj[neg] -= cq
    for i, bj in enumerate(basis):
        cb = obj[bj]
        if cb:
            obj[:] = [a - cb * b if b else a for a, b in zip(obj, rows[i])]
    status = _ref_bland(rows, obj, basis, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    colval = {bj: rows[i][-1] for i, bj in enumerate(basis)}
    x = []
    for k in range(nvars):
        if k in fixings:
            x.append(Fraction(fixings[k]))
            continue
        pos, neg = col_of[k]
        v = colval.get(pos, zero)
        if neg is not None:
            v = v - colval.get(neg, zero)
        x.append(Fraction(v))
    value = Fraction(-obj[-1] + const)
    return LPResult(OPTIMAL, value, tuple(x))


def build_ce_lp(
    vs: Sequence[Valuation],
    alloc: Allocation,
    point: GPoint,
    walrasian: bool = False,
) -> ReferenceLP:
    """The full revenue-maximization LP at a point: variables are the d
    price coordinates; for every agent and every bundle T of finite value,
    <p, a_T - a_b> >= v_b(T) - v_b(S_b). Walrasian mode pins the edge
    coordinates to zero."""
    g = point.graph
    verts = vertices_P(g)
    rows = []
    for b, S in enumerate(alloc):
        ab = char_vector(S, g)
        vb = value(vs[b], S)
        if not is_finite(vb):
            raise ValueError(f"agent {b} is assigned a bundle of value -inf")
        for q in verts:
            if q.coords == ab.coords:
                continue
            vq = value(vs[b], q.as_bundle())
            if not is_finite(vq):
                continue  # never competes: dominated by the empty bundle
            coeffs = tuple(Fraction(x - y) for x, y in zip(q.coords, ab.coords))
            rows.append((coeffs, GE, vq - vb))
    fixings = (
        {g.n + k: Fraction(0) for k in range(len(g.edges))} if walrasian else None
    )
    objective = tuple(Fraction(c) for c in point.coords)
    return ReferenceLP(objective, tuple(rows), fixings=fixings)


def oracle_optimal_revenue(
    vs: Sequence[Valuation], supply: Sequence[int], walrasian: bool = False
) -> Optional:
    g = vs[0].graph
    m = len(vs)
    bundles = [
        frozenset(i for i in range(g.n) if mask >> i & 1)
        for mask in range(1 << g.n)
    ]
    best = None
    for alloc in itertools.product(bundles, repeat=m):
        agg = aggregate(g, alloc)
        if project(agg) != tuple(supply):
            continue
        res = reference_lp_solve(build_ce_lp(vs, alloc, agg, walrasian))
        if res.status != OPTIMAL:
            continue
        if best is None or res.value > best:
            best = res.value
    return best


def box_optimal_ce(vs: Sequence[Valuation], supply: Sequence[int], walrasian: bool = False):
    """The exhaustive search optimal_ce replaced: price every point of the
    candidate box in lexicographic order, keep the first of maximal
    revenue."""
    best = None
    for a in candidate_points(vs[0].graph, supply):
        res = ce_price_at_point(vs, a, walrasian=walrasian)
        if res.status == FOUND and (best is None or res.revenue > best.revenue):
            best = res
    return best if best is not None else CEResult(NO_POINT_FOUND)


def bundle_key(S: Bundle) -> tuple[int, ...]:
    return tuple(sorted(S))


def alloc_key(alloc: Sequence[Bundle]) -> tuple:
    """Least bundle multiset first, then least agent order."""
    per_agent = tuple(bundle_key(S) for S in alloc)
    return (tuple(sorted(per_agent)), per_agent)


def _reference_plan(counts: tuple[int, ...]) -> list:
    """Per DP state, a count vector u <= counts at index sum_k u_k * w_k
    with w_k = prod_{l<k} (counts_l + 1): (agent sum_k u_k, the moves
    (k, index with u_k raised by one) in increasing k)."""
    weights, size = [], 1
    for c in counts:
        weights.append(size)
        size *= c + 1
    plan = []
    for idx in range(size):
        u = [idx // w % (c + 1) for w, c in zip(weights, counts)]
        moves = [(k, idx + w) for k, (x, c, w) in enumerate(zip(u, counts, weights)) if x < c]
        plan.append((sum(u), moves))
    return plan


def reference_assign(
    parts: Sequence[Bundle], tables: Sequence[Sequence[Optional[int]]]
) -> tuple[Union[int, float], Allocation]:
    """Best matching of the parts to the agents (tables[b][mask], None for
    -inf) by a DP over the distinct bundles sorted by bundle_key; the
    witness gives each agent in turn the least bundle still attaining the
    optimum, and is the parts sorted by bundle_key when it is -inf."""
    counts: dict[Bundle, int] = {}
    for S in parts:
        counts[S] = counts.get(S, 0) + 1
    kinds = sorted(counts, key=bundle_key)
    plan = _reference_plan(tuple(counts[S] for S in kinds))
    cols = [
        [NEG_INF if x is None else x for x in (t[s] for t in tables)]
        for s in (sum(1 << i for i in S) for S in kinds)
    ]
    f: list = [0] * len(plan)
    for idx in range(len(plan) - 2, -1, -1):
        b, moves = plan[idx]
        f[idx] = max(cols[k][b] + f[nxt] for k, nxt in moves)
    if f[0] == NEG_INF:
        return NEG_INF, tuple(sorted(parts, key=bundle_key))
    idx, alloc = 0, []
    for b in range(len(parts)):
        for k, nxt in plan[idx][1]:
            if cols[k][b] + f[nxt] == f[idx]:
                break
        idx = nxt
        alloc.append(kinds[k])
    return f[0], tuple(alloc)


def reference_best_splits(
    vs: Sequence[Valuation], items: Iterable[tuple], *, top_only: bool = False
) -> tuple[int, dict]:
    """(L, best) over (key, parts) items: per key the split of highest
    integer welfare (units of 1 / L), ties to the least alloc_key. With
    top_only a split whose bound sum_j max_b v_b(S_j) is below the
    highest welfare matched so far is skipped."""
    scale, tables = common_tables(vs)
    if top_only:
        tops = {
            S: max((x for x in col if x is not None), default=NEG_INF)
            for S, col in zip(bundle_table(vs[0].graph), zip(*tables))
        }
    top = NEG_INF
    best: dict = {}
    for key, parts in items:
        if top_only and sum(tops[S] for S in parts) < top:
            continue
        cand = reference_assign(parts, tables)
        if top_only and cand[0] > top:
            top = cand[0]
        cur = best.get(key)
        if (
            cur is None
            or cand[0] > cur[0]
            or (cand[0] == cur[0] and alloc_key(cand[1]) < alloc_key(cur[1]))
        ):
            best[key] = cand
    return scale, best
