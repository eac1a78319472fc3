import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gpauction import linprog
from gpauction.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    InternalError,
    LinearProgram,
    LPResult,
    lp_solve,
)

from .oracle import EQ, GE, LE, ReferenceLP, ReferenceResult, dense_pivot, reference_lp_solve

# The reference solver of tests/oracle.py: general rows, free variables,
# fixings.


def test_single_bound():
    lp = ReferenceLP((F(1),), (((F(1),), LE, F(3)),))
    res = reference_lp_solve(lp)
    assert res == ReferenceResult(OPTIMAL, F(3), (F(3),))


def test_infeasible_pair():
    lp = ReferenceLP((F(1),), (((F(1),), LE, F(0)), ((F(1),), GE, F(1))))
    assert reference_lp_solve(lp).status == INFEASIBLE


def test_unbounded():
    assert reference_lp_solve(ReferenceLP((F(1),), ())).status == UNBOUNDED


def test_free_variable_negative_optimum():
    lp = ReferenceLP((F(-1),), (((F(1),), GE, F(-5)),))
    res = reference_lp_solve(lp)
    assert (res.value, res.x) == (F(5), (F(-5),))


def test_equality_and_nonneg():
    lp = ReferenceLP(
        (F(1), F(1)),
        (((F(1), F(1)), EQ, F(2)), ((F(1), F(0)), LE, F(1))),
        nonneg=(True, True),
    )
    res = reference_lp_solve(lp)
    assert res.value == 2
    assert sum(res.x) == 2


def test_fixings_fold_into_value():
    lp = ReferenceLP(
        (F(1), F(1)), (((F(1), F(0)), LE, F(1)),), fixings={1: F(2)}
    )
    res = reference_lp_solve(lp)
    assert res.value == 3
    assert res.x[1] == 2


def test_zero_objective_feasibility():
    lp = ReferenceLP(
        (F(0), F(0)),
        (((F(1), F(1)), GE, F(1)), ((F(1), F(-1)), EQ, F(0))),
    )
    res = reference_lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.x[0] == res.x[1] and res.x[0] + res.x[1] >= 1


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    rows = (
        ((F(1, 4), F(-8), F(-1), F(9)), LE, F(0)),
        ((F(1, 2), F(-12), F(-1, 2), F(3)), LE, F(0)),
        ((F(0), F(0), F(1), F(0)), LE, F(1)),
    )
    lp = ReferenceLP((F(3, 4), F(-20), F(1, 2), F(-6)), rows, nonneg=(True,) * 4)
    res = reference_lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.value == F(5, 4)


def test_rational_exactness():
    lp = ReferenceLP(
        (F(1), F(1)),
        (
            ((F(1, 3), F(1, 7)), LE, F(1)),
            ((F(1, 7), F(1, 3)), LE, F(1)),
        ),
        nonneg=(True, True),
    )
    res = reference_lp_solve(lp)
    assert res.value == F(21, 5)


def test_all_zero_row_consistency():
    sat = ReferenceLP((F(1),), (((F(0),), LE, F(1)), ((F(1),), LE, F(2))))
    assert reference_lp_solve(sat).value == 2
    unsat = ReferenceLP((F(1),), (((F(0),), GE, F(1)),))
    assert reference_lp_solve(unsat).status == INFEASIBLE


@given(st.data())
def test_witness_satisfies_all_rows(data):
    nvars = data.draw(st.integers(1, 4))
    nrows = data.draw(st.integers(1, 6))
    frac = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=4)
    obj = tuple(data.draw(frac) for _ in range(nvars))
    rows = tuple(
        (
            tuple(data.draw(frac) for _ in range(nvars)),
            data.draw(st.sampled_from((LE, GE, EQ))),
            data.draw(frac),
        )
        for _ in range(nrows)
    )
    res = reference_lp_solve(ReferenceLP(obj, rows))
    if res.status != OPTIMAL:
        return
    for coeffs, rel, rhs in rows:
        lhs = sum(c * x for c, x in zip(coeffs, res.x))
        assert (
            lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs
        )
    assert sum(c * x for c, x in zip(obj, res.x)) == res.value


# The production core: max c.x, Ax = b, x >= 0, on integer pivots.


def standard(objective, rows, rhs) -> LinearProgram:
    return LinearProgram(tuple(objective), tuple(map(tuple, rows)), tuple(rhs))


def as_reference(lp: LinearProgram) -> ReferenceLP:
    rows = tuple((coeffs, EQ, b) for coeffs, b in zip(lp.rows, lp.rhs))
    return ReferenceLP(lp.objective, rows, nonneg=(True,) * len(lp.objective))


def fractions(res: LPResult) -> tuple:
    """(value, x, y) of an optimum: its integers cx, X and Y over its
    scale D."""
    D = res.scale
    return F(res.cx, D), tuple(F(v, D) for v in res.X), tuple(F(v, D) for v in res.Y)


def assert_certified(lp: LinearProgram, res: LPResult) -> None:
    """x feasible, y dual feasible, equal objective values."""
    cols = list(zip(*lp.rows)) if lp.rows else [()] * len(lp.objective)
    value, x, y = fractions(res)
    assert all(xj >= 0 for xj in x)
    for coeffs, b in zip(lp.rows, lp.rhs):
        assert sum(a * xj for a, xj in zip(coeffs, x)) == b
    for col, c in zip(cols, lp.objective):
        assert sum(a * yi for a, yi in zip(col, y)) >= c
    assert sum(c * xj for c, xj in zip(lp.objective, x)) == value
    assert sum(b * yi for b, yi in zip(lp.rhs, y)) == value


def test_core_optimum_with_duals():
    lp = standard((3, 2), [(1, 3), (1, -1)], (6, 1))
    res = lp_solve(lp)
    assert res.status == OPTIMAL
    assert fractions(res) == (F(37, 4), (F(9, 4), F(5, 4)), (F(5, 4), F(7, 4)))
    assert_certified(lp, res)


def test_core_negative_rhs_and_redundant_rows():
    # row 2 is minus row 1; row 3 is all zero
    lp = standard((-1, -2, 0), [(1, 1, 1), (-1, -1, -1), (0, 0, 0)], (-3, 3, 0))
    assert lp_solve(lp).status == INFEASIBLE
    lp = standard((-1, -2, 0), [(1, 1, 1), (-1, -1, -1), (0, 0, 0)], (3, -3, 0))
    res = lp_solve(lp)
    assert (res.status, fractions(res)[0]) == (OPTIMAL, 0)
    assert_certified(lp, res)


def test_core_unbounded_and_empty_shapes():
    assert lp_solve(standard((1, 0), [(1, -1)], (1,))).status == UNBOUNDED
    assert lp_solve(standard((1,), [], [])).status == UNBOUNDED
    res = lp_solve(standard((-1,), [], []))
    assert (res.status, fractions(res)[1:]) == (OPTIMAL, ((0,), ()))
    assert lp_solve(standard((), [()], (1,))).status == INFEASIBLE
    assert fractions(lp_solve(standard((), [()], (0,))))[2] == (0,)


def test_core_degenerate_cycling_guard():
    # Beale's example in standard form, one slack per row, with the first
    # two rows times 4 and 2 and the objective times 4
    rows = [
        (1, -32, -4, 36, 1, 0, 0),
        (1, -24, -1, 6, 0, 1, 0),
        (0, 0, 1, 0, 0, 0, 1),
    ]
    lp = standard((3, -80, 2, -24, 0, 0, 0), rows, (0, 0, 1))
    res = lp_solve(lp)
    assert (res.status, fractions(res)[0]) == (OPTIMAL, 5)
    assert_certified(lp, res)


def test_core_rejects_bad_shapes():
    with pytest.raises(ValueError, match="rhs length"):
        standard((1,), [(1,)], ())
    with pytest.raises(ValueError, match="row length"):
        standard((1,), [(1, 2)], (1,))


def test_failed_certificate_raises(monkeypatch):
    """A pivot that breaks exactness is caught by the certificate, not
    returned."""
    pivot = linprog._pivot

    def off_by_one(rows, D, r, s):
        p = pivot(rows, D, r, s)
        rows[r][-1] += 1
        return p

    monkeypatch.setattr(linprog, "_pivot", off_by_one)
    with pytest.raises(InternalError):
        lp_solve(standard((1, 1), [(1, 2), (3, 1)], (4, 5)))


def phases(monkeypatch, *ends):
    """Patch _bland so that phase k returns ends[k](D) without pivoting, or
    runs as written where ends[k] is None."""
    bland, ends = linprog._bland, iter(ends)

    def patched(rows, obj, basis, D, ncols):
        end = next(ends)
        return bland(rows, obj, basis, D, ncols) if end is None else end(D)

    monkeypatch.setattr(linprog, "_bland", patched)


# -x0 - x1 = -1: a negative rhs, so each certificate is checked against the
# row as given, not as the tableau negates it.
NEGATED = standard((0, 1), [(-1, -1)], (-1,))


@pytest.mark.parametrize(
    "ends, message",
    [
        # phase 1 stops at the artificial basis of a feasible LP
        ([lambda D: (OPTIMAL, D, -1)], "without a valid Farkas certificate"),
        # phase 2 calls the bounded LP unbounded along x1
        ([None, lambda D: (UNBOUNDED, D, 1)], "without a valid unbounded ray"),
        # phase 2 stops at x = (1, 0), where x1 still has positive reduced cost
        ([None, lambda D: (OPTIMAL, D, -1)], "the duals fail"),
    ],
)
def test_failed_phase_raises(monkeypatch, ends, message):
    """A phase that ends early, or reports the wrong status, fails the
    certificate check of what it returned."""
    res = lp_solve(NEGATED)
    assert (res.status, fractions(res)) == (OPTIMAL, (F(1), (F(0), F(1)), (F(-1),)))
    phases(monkeypatch, *ends)
    with pytest.raises(InternalError, match=message):
        lp_solve(NEGATED)


def draw_lp(data) -> LinearProgram:
    """Up to 4 rows and 5 columns of small ints, or of -2..2."""
    ncols = data.draw(st.integers(0, 5))
    nrows = data.draw(st.integers(0, 4))
    entry = data.draw(st.sampled_from((st.integers(-16, 16), st.integers(-2, 2))))
    return standard(
        [data.draw(entry) for _ in range(ncols)],
        [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)],
        [data.draw(entry) for _ in range(nrows)],
    )


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_core_matches_reference(data):
    """Status and value equal the reference solver's; every optimum
    carries duals that pass the certificate."""
    lp = draw_lp(data)
    res = lp_solve(lp)
    ref = reference_lp_solve(as_reference(lp))
    assert res.status == ref.status
    if res.status == OPTIMAL:
        assert fractions(res)[0] == ref.value
        assert_certified(lp, res)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_integer_result_is_the_fractions_scaled(data):
    """An optimum's cx over its scale D > 0 is the reference solver's
    value, and any other status sets no integer. The same LP given by
    its columns to _of_columns, unchecked, solves to an equal result."""
    lp = draw_lp(data)
    res = lp_solve(lp)
    if res.status == OPTIMAL:
        assert res.scale > 0
        assert F(res.cx, res.scale) == reference_lp_solve(as_reference(lp)).value
    else:
        assert res == LPResult(res.status)
    raw = LinearProgram._of_columns(lp.objective, list(zip(*lp.rows)), lp.rhs)
    assert raw == lp
    assert lp_solve(raw) == res


@pytest.mark.parametrize("bad", [0.5, "1", float("inf"), F(1, 2), True])
@pytest.mark.parametrize("where", ["objective", "row", "rhs"])
def test_inexact_entry_raises_type_error(bad, where):
    """An LP holds ints only: any other entry is refused when it is built."""
    entries = {"objective": (1, 1), "row": (1, 1), "rhs": (1,)}
    entries[where] = entries[where][:-1] + (bad,)
    message = f"refusing LP entry {bad!r} of type {type(bad).__name__}; use int"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        LinearProgram(entries["objective"], (entries["row"],), entries["rhs"])


# The sparse pivot: the same integers as the dense reference pivot.

SHIPPED_PIVOT = linprog._pivot


def checked_pivot(rows, D, r, s):
    """The shipped pivot, checked against dense_pivot on a copy of the
    tableau: the same new denominator and the same integers. Every pivot
    is positive, and so is every denominator."""
    assert D > 0 and rows[r][s] > 0
    dense = [row[:] for row in rows]
    p = dense_pivot(dense, D, r, s)
    assert SHIPPED_PIVOT(rows, D, r, s) == p
    assert rows == dense
    return p


def solve_with(pivot, lp: LinearProgram) -> LPResult:
    with mock.patch.object(linprog, "_pivot", pivot):
        return lp_solve(lp)


def pivots_taken(lp: LinearProgram) -> list[tuple[int, int, list[int]]]:
    """(p, D, the other rows' entries f in the pivot column) per pivot."""
    seen = []

    def spy(rows, D, r, s):
        seen.append((rows[r][s], D, [row[s] for i, row in enumerate(rows) if i != r]))
        return SHIPPED_PIVOT(rows, D, r, s)

    solve_with(spy, lp)
    return seen


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_pivot_matches_dense(data):
    """Every tableau the shipped pivot leaves equals the dense pivot's, so
    does every integer of the result: D, cx, X and Y. Unit entries take
    the sparse path; larger integers take the dense one as well."""
    ncols = data.draw(st.integers(1, 5))
    nrows = data.draw(st.integers(1, 4))
    entry = data.draw(st.sampled_from((st.integers(-1, 1), st.integers(-3, 3), st.integers(-9, 9))))
    lp = standard(
        [data.draw(entry) for _ in range(ncols)],
        [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)],
        [data.draw(entry) for _ in range(nrows)],
    )
    res = solve_with(checked_pivot, lp)
    assert res == solve_with(dense_pivot, lp) == lp_solve(lp)


def test_pivot_off_unit_keeps_the_dense_update():
    """A pivot p = 2 under D = 1 rebuilds the rows densely."""
    lp = standard((1, 1), [(2, 1)], (3,))
    assert any(p not in (D, -D) for p, D, _ in pivots_taken(lp))
    res = solve_with(checked_pivot, lp)
    assert res == solve_with(dense_pivot, lp)
    assert (res.status, fractions(res)[:2]) == (OPTIMAL, (3, (0, 3)))


def test_pivot_equal_to_d_updates_only_divisible_rows_sparsely():
    """Under p = D = 2, the row with f = 2 takes the sparse update and the
    row with f = 1 the dense one."""
    lp = standard((1, 1), [(0, 1), (-2, -1)], (0, -2))
    assert (2, 2, [1, 2]) in pivots_taken(lp)
    res = solve_with(checked_pivot, lp)
    assert res == solve_with(dense_pivot, lp)
    value, _, y = fractions(res)
    assert (res.status, value, y) == (OPTIMAL, 1, (F(1, 2), F(-1, 2)))


def test_pivot_out_on_a_negative_entry_negates_its_row_first():
    """The basic artificial of the row (0, -1) is pivoted out on its -1
    entry: the row is negated first, so the pivot is +1 = D and takes the
    sparse path, and no pivot is negative."""
    lp = standard((1, -1), [(1, 0), (0, -1)], (1, 0))
    taken = pivots_taken(lp)
    assert all(p > 0 and D > 0 for p, D, _ in taken)
    assert taken[-1] == (1, 1, [0])
    res = solve_with(checked_pivot, lp)
    assert res == solve_with(dense_pivot, lp)
    assert (res.status, fractions(res)[:2]) == (OPTIMAL, (1, (1, 0)))
