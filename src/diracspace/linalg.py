"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  `rref`, `kernel_basis` and
`span_basis` also take rows of ints (or of both), since an int has a
numerator and a denominator too; their results are Fractions either way.
Everything reduces to reduced row echelon form; subspaces compare by
their canonical RREF basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def rref(rows: list[list[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Each row is scaled to integers and eliminated fraction-free,
    ``row_i <- pv*row_i - f*row_r`` divided by the gcd of its entries;
    each pivot row is divided by its pivot once at the end, so the
    result is the canonical RREF over the rationals, in Fractions.
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
    return [[Fraction(a, row[pc]) if a else _ZERO for a in row]
            for row, pc in zip(m, pivots)], pivots


def integer_row(row) -> list[int]:
    """A row of ints or Fractions times the lcm of its denominators."""
    den = lcm(*[x.denominator for x in row])
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


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix."""
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


def solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """One particular solution of A x = b (free variables zero), or None."""
    if not rows:
        return None
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # inconsistent: pivot in the rhs column
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def span_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical (RREF) basis of the row span."""
    red, _ = rref(rows)
    return red


def span_equal(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    return span_basis(a) == span_basis(b)

