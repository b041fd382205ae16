import itertools
import random
from fractions import Fraction

from math import gcd

import pytest

from diracspace.linalg import (distinct_lines, echelon, int_kernel,
                               integer_row, kernel_basis, rref, solve,
                               solve_many, span_basis, span_equal)

rng = random.Random(303)


def rank(rows):
    return len(span_basis(rows))


def rand_matrix(m, n):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
            for _ in range(m)]


def mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def test_solve_gives_solutions():
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(m, n)
        x0 = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        b = mat_vec(A, x0)
        x = solve(A, b)
        assert x is not None and mat_vec(A, x) == b


def test_solve_detects_inconsistency():
    A = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    b = [Fraction(0), Fraction(1)]
    assert solve(A, b) is None


def test_kernel_annihilates():
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = rand_matrix(m, n)
        ker = kernel_basis(A, n)
        for v in ker:
            assert all(x == 0 for x in mat_vec(A, v))
        assert len(ker) == n - rank(A)


def test_span_operations():
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = rand_matrix(rng.randint(1, 4), n)
        basis = span_basis(rows)
        assert span_equal(basis, rows + rows)
        for row in rows:
            assert span_equal(basis, basis + [row])
        # a scaled combination stays inside
        combo = [sum(Fraction(2) * r[i] for r in rows) for i in range(n)]
        assert span_equal(basis, basis + [combo])


def test_rref_idempotent():
    for _ in range(20):
        A = rand_matrix(3, 4)
        R, pivots = rref(A)
        assert rref(R) == (R, pivots)


def reference_rref(rows):
    """Gauss-Jordan elimination over Fraction rows, the reference for
    the fraction-free ``rref``."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m if any(x != 0 for x in row)], pivots


def _mixed_matrix(local, m, n):
    """Mixed denominators, zero rows, all-zero and pivot-free columns,
    and duplicated or dependent rows."""
    dens = [1, 1, 2, 3, 4, 5, 6, 7, 12, 35]
    rows = []
    zero_cols = {c for c in range(n) if local.random() < 0.15}
    for _ in range(m):
        kind = local.random()
        if kind < 0.1 or (kind < 0.15 and not rows):
            rows.append([Fraction(0)] * n)
        elif kind < 0.3 and rows:
            a, b = local.choice(rows), local.choice(rows)
            s, t = (Fraction(local.randint(-4, 4), local.choice(dens))
                    for _ in range(2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.38 and rows:
            rows.append(list(local.choice(rows)))
        else:
            rows.append([Fraction(0) if c in zero_cols else
                         Fraction(local.randint(-9, 9), local.choice(dens))
                         for c in range(n)])
    if local.random() < 0.05:
        rows = [[Fraction(0)] * n for _ in range(m)]
    if local.random() < 0.2:
        rows = [[int(x.numerator) for x in row] for row in rows]
    return rows


def test_rref_matches_fraction_reference():
    local = random.Random(4096)
    for _ in range(2000):
        m, n = local.randint(1, 6), local.randint(1, 7)
        A = _mixed_matrix(local, m, n)
        R, pivots = rref(A)
        want_R, want_pivots = reference_rref(A)
        assert pivots == want_pivots and R == want_R
        assert all(type(x) is Fraction for row in R for x in row)
        assert kernel_basis(A, n) == _reference_kernel(want_R, want_pivots, n)
        b = [Fraction(local.randint(-5, 5), local.choice([1, 2, 3]))
             for _ in range(m)]
        assert solve(A, b) == _reference_solve(A, b)
        v = [Fraction(local.randint(-5, 5), local.choice([1, 4]))
             for _ in range(n)]
        in_span = reference_rref(A + [v])[1] == want_pivots
        assert span_equal(A, A + [v]) == in_span
        assert span_equal(A, A + [A[-1]])
    assert rref([]) == reference_rref([]) == ([], [])


def _reference_kernel(red, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def _reference_solve(rows, rhs):
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def test_int_rows_reduce_like_their_fractions():
    # rref, kernel_basis and span_basis read an int entry as the
    # Fraction it equals, and return Fractions
    local = random.Random(3030)
    for _ in range(300):
        m, n = local.randint(0, 6), local.randint(1, 7)
        ints = [[local.randint(-4, 4) * local.choice([0, 1, 1, 6])
                 for _ in range(n)] for _ in range(m)]
        fracs = [[Fraction(x) for x in row] for row in ints]
        R, pivots = rref(ints)
        assert (R, pivots) == rref(fracs)
        assert all(type(x) is Fraction for row in R for x in row)
        assert kernel_basis(ints, n) == kernel_basis(fracs, n)
        assert span_basis(ints) == span_basis(fracs)


def test_integer_row_clears_denominators():
    assert integer_row([Fraction(1, 2), 3, Fraction(-2, 3)]) == [3, 18, -4]
    assert integer_row([0, 5]) == [0, 5]
    assert integer_row([]) == []


def test_distinct_lines_keep_the_span():
    local = random.Random(3031)
    for _ in range(300):
        m, n = local.randint(0, 8), local.randint(1, 5)
        base = [[local.randint(-2, 2) for _ in range(n)]
                for _ in range(local.randint(1, 3))]
        rows = [[local.choice([-3, -1, 0, 2]) * x for x in local.choice(base)]
                for _ in range(m)]
        lines = distinct_lines(rows)
        assert span_basis(lines) == span_basis(rows)
        for row in lines:
            assert gcd(*row) == 1 and next(a for a in row if a) > 0
        # no line is listed twice, and every nonzero row lies on one
        assert all(rank([a, b]) == 2
                   for a, b in itertools.combinations(lines, 2))
        for row in rows:
            if any(row):
                assert any(rank([row, line]) == 1 for line in lines)


def _echelon_cases(local):
    """About 300 matrices: int, Fraction and mixed entries, zero and
    repeated rows, and no rows at all."""
    cases = []
    for _ in range(300):
        m, n = local.randint(0, 6), local.randint(1, 7)
        A = _mixed_matrix(local, m, n) if m else []
        kind = local.random()
        if kind < 0.3:
            A = [[int(x.numerator) for x in row] for row in A]
        elif kind < 0.6:
            A = [[int(x.numerator) if local.random() < 0.5 else x
                  for x in row] for row in A]
        cases.append((A, n))
    return cases


def test_echelon_rows_are_the_integer_rref_rows():
    for A, n in _echelon_cases(random.Random(2424)):
        rows, pivots = echelon(A)
        want_R, want_pivots = reference_rref(A)
        assert pivots == want_pivots
        assert rows == [integer_row(row) for row in want_R]
        for row, pc in zip(rows, pivots):
            assert all(type(a) is int for a in row)
            assert gcd(*row) == 1 and row[pc] > 0
            assert not any(row[:pc])


def _kernel_basis_by_rref(rows, ncols):
    """kernel_basis as it was written over `rref`: per free column, the
    vector that is 1 there, 0 at the other free columns and minus the
    RREF entry at each pivot column."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def test_kernel_basis_is_the_int_kernel_over_its_free_entry():
    for A, n in _echelon_cases(random.Random(2525)):
        ker = kernel_basis(A, n)
        assert ker == _kernel_basis_by_rref(A, n)
        assert all(type(x) is Fraction for v in ker for x in v)
        assert int_kernel(A, n) == [integer_row(v) for v in ker]


def test_solve_many_is_solve_per_column():
    local = random.Random(2626)
    for A, n in _echelon_cases(local):
        if not A:
            assert solve_many(A, [[]]) is None and solve_many(A, []) == []
            continue
        m = len(A)
        rhss = []
        for _ in range(local.randint(0, 4)):
            if local.random() < 0.7:   # consistent: b = A x0
                x0 = [Fraction(local.randint(-3, 3), local.choice([1, 2]))
                      for _ in range(n)]
                rhss.append(mat_vec(A, x0))
            else:
                rhss.append([Fraction(local.randint(-3, 3))
                             for _ in range(m)])
        each = [solve(A, b) for b in rhss]
        assert each == [_reference_solve(A, b) for b in rhss]
        got = solve_many(A, rhss)
        assert got == (None if None in each else each)


@pytest.mark.parametrize("call", [
    lambda: echelon([[1, 0.5]]),
    lambda: rref([[Fraction(1, 2), 0.5]]),
    lambda: span_basis([[0.5, 1]]),
    lambda: kernel_basis([[1, 0.5]], 2),
    lambda: int_kernel([[1, 2], [3, 0.5]], 2),
    lambda: solve([[1]], [0.5]),
    lambda: solve_many([[1, 2]], [[3], [0.25]]),
], ids=["echelon", "rref", "span_basis", "kernel_basis", "int_kernel",
        "solve", "solve_many"])
def test_float_entries_raise_type_error(call):
    with pytest.raises(TypeError,
                       match="expected an integer or Fraction, got float"):
        call()
