"""Exact linear programming on one standard-form core:

    max c . x   subject to   A x = b,   x >= 0.

Two-phase simplex with Bland's rule on both the entering and the leaving
choice, so it terminates; there is no tolerance anywhere. The tableau is
fraction-free (Edmonds 1967, Bareiss 1968): every entry of the LP is
an int, the tableau holds integers over one common denominator D (the
determinant of the current basis), and each pivot divides exactly by
the previous pivot. No rational number is formed at all: the answer
is the integers the certificates check (LPResult's scale D, cx = D
times the value, X = D times x and Y = D times y), and a caller that
wants Fractions divides by D itself. Every pivot is positive, so
D > 0 throughout: Bland's ratio test picks a positive entry, and
pivoting a basic artificial out after phase 1 on a negative entry
negates its row first.

The pricing LPs are nearly unimodular (their columns are 0/+-1
differences of characteristic vectors), so almost every pivot p equals
the previous one, D. Then (p * a - f * b) / D is a - (f / D) * b whenever
D divides f, and a pivot subtracts a multiple of the pivot row at its
nonzero entries only. The integers, hence every Bland choice and every
certificate, are those of the dense update.

Every status is certified before it is returned (Applegate, Cook, Dash
and Espinoza, ORL 35, 2007): OPTIMAL by a primal x and row duals y with
Ax = b, x >= 0, A^T y >= c and c.x = b.y; INFEASIBLE by a Farkas vector w
with A^T w >= 0 and b.w < 0; UNBOUNDED by a feasible x and a ray r >= 0
with Ar = 0 and c.r > 0. A failed check raises InternalError, so the
exactness of every integer division is itself checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import mul
from typing import Optional

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


class InternalError(RuntimeError):
    """A guard on a certified result failed: a defect in the solver, not
    in its input. Raised by explicit checks so it survives ``python -O``."""


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x subject to rows[i] . x == rhs[i] for every i, and
    x >= 0. Every entry is an int; any other type, a Fraction or a bool
    included, raises TypeError here."""

    objective: tuple
    rows: tuple[tuple, ...]
    rhs: tuple

    def __post_init__(self):
        if len(self.rhs) != len(self.rows):
            raise ValueError("rhs length does not match the number of rows")
        nvars = len(self.objective)
        for coeffs in self.rows:
            if len(coeffs) != nvars:
                raise ValueError("row length does not match objective length")
        if not set(map(type, chain(self.objective, *self.rows, self.rhs))) <= {int}:
            bad = next(
                x for x in chain(self.objective, *self.rows, self.rhs) if type(x) is not int
            )
            raise TypeError(f"refusing LP entry {bad!r} of type {type(bad).__name__}; use int")

    @classmethod
    def _of_columns(cls, objective: tuple, columns: list, rhs: tuple) -> "LinearProgram":
        """The LP whose j-th column is columns[j], one entry per row of
        rhs, from ints its caller built in matching lengths: taken without
        __post_init__'s pass over them. No column gives len(rhs) empty
        rows."""
        lp = object.__new__(cls)
        object.__setattr__(lp, "objective", objective)
        object.__setattr__(lp, "rows", tuple(zip(*columns)) if columns else ((),) * len(rhs))
        object.__setattr__(lp, "rhs", rhs)
        return lp


@dataclass(frozen=True)
class LPResult:
    """What lp_solve certified, in integers. When OPTIMAL, ``scale`` is
    the common denominator D > 0, ``cx`` D times the value, ``X`` D times
    x and ``Y`` D times the row duals y; otherwise all four are None."""

    status: str
    scale: Optional[int] = None
    cx: Optional[int] = None
    X: Optional[tuple[int, ...]] = None
    Y: Optional[tuple[int, ...]] = None


def _pivot(rows: list[list[int]], D: int, r: int, s: int) -> int:
    """Fraction-free pivot on p = rows[r][s]: every other row i becomes
    (p * row_i - f * row_r) / D with f = row_i[s], an exact division.
    Returns the new common denominator p; callers pivot only on p > 0.

    When p = D and D divides f, that quotient is row_i - (f / D) * row_r
    entry by entry, so only the pivot row's nonzero entries are touched.
    The integers are the ones the general formula gives."""
    prow = rows[r]
    p = prow[s]
    if p == D:
        nonzero = [(j, prow[j]) for j in compress(range(len(prow)), prow)]
    for row in rows:
        if row is prow:
            continue
        f = row[s]
        if f:
            if p == D and not f % D:
                q = f // D
                for j, b in nonzero:
                    row[j] -= q * b
            else:
                row[:] = [(p * a - f * b) // D for a, b in zip(row, prow)]
        elif p != D:
            row[:] = [p * a // D for a in row]
    return p


_ZERO_LT = (0).__lt__  # _ZERO_LT(x) is x > 0


def _bland(rows, obj, basis, D: int, ncols: int) -> tuple[str, int, int]:
    """Primal simplex on columns 0..ncols-1. ``obj`` holds D times the
    reduced costs; its last entry is -D times the objective value. Returns
    (OPTIMAL or UNBOUNDED, D, the unbounded entering column or -1)."""
    table = rows + [obj]
    while True:
        s = next(compress(range(ncols), map(_ZERO_LT, obj)), -1)
        if s < 0:
            return OPTIMAL, D, -1
        r = -1
        for i, row in enumerate(rows):
            a = row[s]
            if a > 0:
                if r < 0:
                    r = i
                    continue
                lhs, rhs = row[-1] * rows[r][s], rows[r][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r < 0:
            return UNBOUNDED, D, s
        D = _pivot(table, D, r, s)
        basis[r] = s


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def lp_solve(lp: LinearProgram) -> LPResult:
    """Solve exactly; OPTIMAL comes with x, the value and the row duals y,
    each times D. Every status is certified (see the module docstring)."""
    ncols, nrows = len(lp.objective), len(lp.rows)
    c = lp.objective

    # Tableau rows [A_i | e_i | b_i], a row negated where b_i < 0 so that
    # b >= 0: one artificial column per row, the starting basis. They carry
    # B^-1, hence the duals of the rows as negated; each certificate takes
    # the row signs back once and is checked against the LP as given.
    art = ncols
    rows = []
    for i, (coeffs, rhs) in enumerate(zip(lp.rows, lp.rhs)):
        row = [-a for a in coeffs] if rhs < 0 else list(coeffs)
        row += [0] * nrows + [abs(rhs)]
        row[art + i] = 1
        rows.append(row)
    basis = [art + i for i in range(nrows)]

    # Phase 1: maximize minus the sum of the artificials. An artificial that
    # leaves may not return; the restricted problem still reaches 0 iff
    # Ax = b has a solution x >= 0.
    D = 1
    obj = [sum(col) for col in zip(*rows)] if rows else [0] * (ncols + 1)
    obj[art : art + nrows] = [0] * nrows
    _, D, _ = _bland(rows, obj, basis, D, ncols)
    if obj[-1]:
        # w_i = -1 - (reduced cost of artificial i), times D, sign-flipped
        # back where row i was negated.
        w = [D + obj[art + i] if rhs < 0 else -D - obj[art + i] for i, rhs in enumerate(lp.rhs)]
        if any(_dot(w, col) < 0 for col in zip(*lp.rows)) or _dot(w, lp.rhs) >= 0:
            raise InternalError("phase 1 ended without a valid Farkas certificate")
        return LPResult(INFEASIBLE)
    # Artificials left in the basis sit at 0: pivot each out on a nonzero
    # structural entry of its row, negated first if negative so that the
    # pivot, hence D, stays positive. A row with none is redundant; its
    # artificial stays basic at 0 and never leaves.
    for i in range(nrows):
        if basis[i] >= art:
            row = rows[i]
            s = next(compress(range(ncols), row), -1)
            if s >= 0:
                if row[s] < 0:
                    row[:] = [-a for a in row]
                D = _pivot(rows, D, i, s)
                basis[i] = s

    # Phase 2: D times the reduced costs of c in the current basis, built
    # from the nonzero entries of each basic row of nonzero cost.
    obj = [D * cj for cj in c] + [0] * (nrows + 1)
    for row, j in zip(rows, basis):
        cj = c[j] if j < art else 0
        if cj:
            for k in compress(range(len(row)), row):
                obj[k] -= cj * row[k]
    status, D, s = _bland(rows, obj, basis, D, ncols)

    # The basic solution, D times x. X is zero off the basis, so Ax sums
    # the columns of the nonzero basic entries alone.
    X, nz, xs = [0] * ncols, [], []
    for i, j in enumerate(basis):
        x = rows[i][-1]
        if j >= art:
            if x:
                raise InternalError("an artificial variable is basic at a nonzero value")
        elif x:
            X[j] = x
            nz.append(j)
            xs.append(x)
    Ax = [sum(map(mul, map(row.__getitem__, nz), xs)) for row in lp.rows]
    if any(x < 0 for x in xs) or Ax != [bi * D for bi in lp.rhs]:
        raise InternalError("the basic solution fails Ax = b, x >= 0")

    if status == UNBOUNDED:
        ray = [0] * ncols
        ray[s] = D
        for i, j in enumerate(basis):
            if rows[i][s]:
                if j >= art:
                    raise InternalError("an unbounded ray moves an artificial variable")
                ray[j] = -rows[i][s]
        if any(x < 0 for x in ray) or any(_dot(row, ray) for row in lp.rows) or _dot(c, ray) <= 0:
            raise InternalError("phase 2 ended without a valid unbounded ray")
        return LPResult(UNBOUNDED)

    # Row duals times D: minus the reduced costs of the artificial columns
    # (phase-2 cost 0), sign-flipped back where a row was negated. A^T y is
    # summed row by row over each row's nonzero entries.
    Y = [obj[art + i] if rhs < 0 else -obj[art + i] for i, rhs in enumerate(lp.rhs)]
    ATy = [0] * ncols
    for yi, row in zip(Y, lp.rows):
        if yi:
            for j in compress(range(ncols), row):
                ATy[j] += yi * row[j]
    cx = _dot(c, X)
    if any(a < cj * D for a, cj in zip(ATy, c)) or cx != _dot(lp.rhs, Y):
        raise InternalError("the duals fail A^T y >= c or c.x = b.y")
    return LPResult(OPTIMAL, D, cx, tuple(X), tuple(Y))
