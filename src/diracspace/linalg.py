"""Exact linear algebra over the rationals.

One elimination, `echelon`, reduces every matrix.  Its result is the
canonical integer echelon form: each row of the reduced row echelon form
(RREF) over ℚ times the lcm of its denominators, so each row is a
primitive int row with a positive pivot.  That is the stored form of a
subspace: two spans are equal exactly when their echelon rows are.
`rref`, `span_basis`, `kernel_basis`, `solve` and `solve_many` are thin
`Fraction` views over it.  Every routine takes rows of ints, of
Fractions or of both, since an int has a numerator and a denominator
too, and raises TypeError on any other entry (a float, say); the
`Fraction` views return Fractions either way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import _as_rat

_ZERO = Fraction(0)


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Canonical integer echelon form; returns (rows, pivot columns).

    Each row is scaled to integers and eliminated fraction-free,
    ``row_i <- pv*row_i - f*row_r`` divided by the gcd of its entries,
    and a row with a negative pivot is negated at the end.  Row i is then
    `integer_row` of RREF row i: primitive, with a positive pivot and
    zeros in the other pivot columns.  Zero rows are dropped.
    """
    m = [_primitive(integer_row(row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([pv * a - f * b
                                   for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row if row[pc] > 0 else [-a for a in row]
            for row, pc in zip(m, pivots)], pivots


def fraction_rows(rows: list[list[int]], pivots: list[int]):
    """The RREF over ℚ, in Fractions, of `echelon` rows: each row
    divided by its pivot."""
    return [[Fraction(a, row[pc]) if a else _ZERO for a in row]
            for row, pc in zip(rows, pivots)]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices),
    the canonical RREF over ℚ in Fractions."""
    red, pivots = echelon(rows)
    return fraction_rows(red, pivots), pivots


def integer_row(row) -> list[int]:
    """A row of ints or Fractions times the lcm of its denominators;
    TypeError on any other entry."""
    try:
        den = lcm(*[x.denominator for x in row])
    except AttributeError:
        for x in row:
            _as_rat(x)   # raises the TypeError
        raise
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def distinct_lines(rows: list[list[int]]) -> list[list[int]]:
    """One row per line spanned by a nonzero integer row: each divided by
    the gcd of its entries and signed to lead with a positive entry,
    repeats and zero rows dropped.  The span is that of the rows."""
    out = {}
    for row in rows:
        row = _primitive(row)
        lead = next((a for a in row if a), 0)
        if lead:
            out[tuple(row) if lead > 0 else tuple(-a for a in row)] = None
    return [list(row) for row in out]


def int_kernel(rows, ncols: int) -> list[list[int]]:
    """Basis of the right kernel of the matrix, as int rows: one per
    free column c, `integer_row` of the kernel vector that is 1 at c and
    0 at the other free columns, so its entry at c is positive."""
    red, pivots = echelon(rows)
    pivoted = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivoted:
            continue
        hits = [(pc, row[fc], row[pc]) for row, pc in zip(red, pivots)
                if row[fc]]
        # the denominator of -a/pv in lowest terms is pv / gcd(a, pv)
        scale = lcm(*[pv // gcd(a, pv) for _, a, pv in hits])
        v = [0] * ncols
        v[fc] = scale
        for pc, a, pv in hits:
            v[pc] = -a * scale // pv
        basis.append(v)
    return basis


def kernel_basis(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix: per free column c, the
    kernel vector that is 1 at c and 0 at the other free columns.  It is
    the `int_kernel` vector over its entry at c, its last nonzero entry,
    since an echelon row is zero before its pivot."""
    basis = []
    for v in int_kernel(rows, ncols):
        s = next(a for a in reversed(v) if a)
        basis.append([Fraction(a, s) if a else _ZERO for a in v])
    return basis


def solve_many(rows, rhss):
    """One particular solution (free variables zero) of A x = b for each
    right-hand side b of ``rhss``, from one reduction of
    [A | b_1 ... b_k]; None when one of them is inconsistent, that is
    when a pivot lands in a right-hand-side column."""
    if not rhss:
        return []
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rref([list(row) + list(bs)
                        for row, bs in zip(rows, zip(*rhss))])
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for j in range(ncols, ncols + len(rhss)):
        x = [_ZERO] * ncols
        for row, pc in zip(red, pivots):
            x[pc] = row[j]
        sols.append(x)
    return sols


def solve(rows, rhs):
    """One particular solution of A x = b (free variables zero), or None."""
    sols = solve_many(rows, [rhs])
    return None if sols is None else sols[0]


def span_basis(rows) -> list[list[Fraction]]:
    """Canonical (RREF) basis of the row span."""
    return rref(rows)[0]


def span_equal(a, b) -> bool:
    return echelon(a)[0] == echelon(b)[0]
