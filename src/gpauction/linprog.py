"""Exact rational linear programming via two-phase tableau simplex.

Bland's rule on both the entering and leaving choices guarantees
termination; there is no tolerance anywhere. Variables are free by
default (prices may be negative); a per-variable flag restricts to
x >= 0 where wanted. Internally arithmetic runs on gmpy2.mpq when
available, with fractions.Fraction as a drop-in fallback; the public
surface speaks Fraction only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

try:
    from gmpy2 import mpq as _rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _rat = Fraction

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


class InternalError(RuntimeError):
    """A guard on a certified result failed: a defect in the solver, not
    in its input. Raised by explicit checks so it survives ``python -O``."""


def _to_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    return Fraction(int(q.numerator), int(q.denominator))


@dataclass(frozen=True)
class LinearProgram:
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


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction] = None
    x: Optional[tuple[Fraction, ...]] = None


def _bland(rows, obj, basis, allowed) -> str:
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
        _pivot(rows, obj, basis, leave, enter)


def _pivot(rows, obj, basis, li: int, ej: int) -> None:
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


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve exactly; returns OPTIMAL with value and a witness, or a
    certified INFEASIBLE / UNBOUNDED status."""
    nvars = len(lp.objective)
    fixings = {k: _rat(v) for k, v in (lp.fixings or {}).items()}
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
        (_rat(lp.objective[k]) * v for k, v in fixings.items()), _rat(0)
    )

    def expand(coeffs) -> list:
        out = [_rat(0)] * ncols
        for k, c in enumerate(coeffs):
            if not c or k in fixings:
                continue
            cq = _rat(c)
            pos, neg = col_of[k]
            out[pos] += cq
            if neg is not None:
                out[neg] -= cq
        return out

    # Normalized rows with rhs >= 0; all-zero rows checked and dropped.
    prepared: list[tuple[list, str]] = []
    for coeffs, rel, rhs in lp.rows:
        b = _rat(rhs) - sum(
            (_rat(coeffs[k]) * v for k, v in fixings.items()), _rat(0)
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
    zero, one = _rat(0), _rat(1)

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
        if _bland(rows, obj, basis, allowed) != OPTIMAL:
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
                    _pivot(rows, obj, basis, i, ej)
        for j in art_cols:
            allowed[j] = False

    # Phase 2 with the real objective.
    obj = [zero] * (total + 1)
    for k in range(nvars):
        if k in fixings or not lp.objective[k]:
            continue
        cq = _rat(lp.objective[k])
        pos, neg = col_of[k]
        obj[pos] += cq
        if neg is not None:
            obj[neg] -= cq
    for i, bj in enumerate(basis):
        cb = obj[bj]
        if cb:
            obj[:] = [a - cb * b if b else a for a, b in zip(obj, rows[i])]
    status = _bland(rows, obj, basis, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    colval = {bj: rows[i][-1] for i, bj in enumerate(basis)}
    x = []
    for k in range(nvars):
        if k in fixings:
            x.append(_to_fraction(fixings[k]))
            continue
        pos, neg = col_of[k]
        v = colval.get(pos, zero)
        if neg is not None:
            v = v - colval.get(neg, zero)
        x.append(_to_fraction(v))
    value = _to_fraction(-obj[-1] + const)
    return LPResult(OPTIMAL, value, tuple(x))
