import random
from fractions import Fraction

from diracspace.linalg import (kernel_basis, rref, solve, span_basis,
                               span_contains, span_equal)

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
            assert span_contains(basis, row)
        # a scaled combination stays inside
        combo = [sum(Fraction(2) * r[i] for r in rows) for i in range(n)]
        assert span_contains(basis, combo)


def test_rref_idempotent():
    for _ in range(20):
        A = rand_matrix(3, 4)
        R, pivots = rref(A)
        assert rref(R) == (R, pivots)
