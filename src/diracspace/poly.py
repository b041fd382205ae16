"""Exact scalars and multivariate polynomials.

Scalars are `fractions.Fraction` throughout; nothing in this package ever
touches floating point.  Polynomials live over a coordinate patch of fixed
dimension n with variables x1..xn and are stored as a map from exponent
vectors to nonzero rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

Rat = Fraction


@dataclass(frozen=True)
class Context:
    """A coordinate patch: global R^n with variables x1..xn."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("patch dimension must be >= 1")

    def var_name(self, i: int) -> str:
        return f"x{i}"

    def axes(self) -> range:
        """Axis indices, 1-based."""
        return range(1, self.dim + 1)


def _as_rat(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an integer or Fraction, got {type(c).__name__}")


class Poly:
    """Polynomial in x1..xn with rational coefficients.

    `terms` maps exponent tuples (length n) to nonzero Fractions; the zero
    polynomial is the empty map.  Instances are immutable by convention.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict | None = None):
        self.ctx = ctx
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = _as_rat(c)
                if c == 0:
                    continue
                if len(exp) != ctx.dim or any(e < 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp} for dim {ctx.dim}")
                clean[tuple(exp)] = c
        self.terms = clean

    @staticmethod
    def _raw(ctx: Context, terms: dict) -> "Poly":
        """Trusted constructor for arithmetic results: ``terms`` already
        maps valid exponent tuples to nonzero Fractions."""
        out = object.__new__(Poly)
        out.ctx = ctx
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Poly":
        return Poly(ctx)

    @staticmethod
    def constant(ctx: Context, c) -> "Poly":
        return Poly(ctx, {(0,) * ctx.dim: _as_rat(c)})

    @staticmethod
    def variable(ctx: Context, i: int) -> "Poly":
        if not 1 <= i <= ctx.dim:
            raise ValueError(f"variable index {i} out of range 1..{ctx.dim}")
        exp = [0] * ctx.dim
        exp[i - 1] = 1
        return Poly(ctx, {tuple(exp): Fraction(1)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic ---------------------------------------------------
    # Results are built with _raw: sums and decrements of valid exponent
    # vectors are valid, and every zero coefficient is dropped where it
    # arises, so no result needs the public constructor's checks.

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in terms:
                s = terms[exp] + c
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
            else:
                terms[exp] = c
        return Poly._raw(self.ctx, terms)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly._raw(self.ctx, {})
            if other == 1:
                return self
            if other == -1:
                return -self
            c = _as_rat(other)
            return Poly._raw(self.ctx,
                             {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        get = terms.get
        add = int.__add__
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                prev = get(e)
                terms[e] = c1 * c2 if prev is None else prev + c1 * c2
        return Poly._raw(self.ctx, {e: c for e, c in terms.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.ctx, 1)
        for _ in range(k):
            out = out * self
        return out

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.ctx.dim:
            raise ValueError(f"axis {i} out of range 1..{self.ctx.dim}")
        # lowering one axis is injective on the terms that have it, so
        # each result term comes from exactly one input term
        terms: dict = {}
        j = i - 1
        for exp, c in self.terms.items():
            k = exp[j]
            if k:
                terms[exp[:j] + (k - 1,) + exp[j + 1:]] = c * k
        return Poly._raw(self.ctx, terms)

    def divide_exact(self, f: "Poly"):
        """Exact polynomial division: return q with self = q*f, or None.

        Long division against the graded-lex leading term of f; used for the
        divisibility membership test of scaled-graph presentations.
        """
        self._check(f)
        if f.is_zero():
            return None
        lead = max(f.terms, key=_grlex_key)
        lc = f.terms[lead]
        rem = self
        q_terms: dict = {}
        while not rem.is_zero():
            rl = max(rem.terms, key=_grlex_key)
            diff = tuple(a - b for a, b in zip(rl, lead))
            if any(d < 0 for d in diff):
                return None
            c = rem.terms[rl] / lc
            q_terms[diff] = q_terms.get(diff, Fraction(0)) + c
            rem = rem - Poly(self.ctx, {diff: c}) * f
        return Poly(self.ctx, q_terms)

    # -- comparison / printing ---------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[exp]
            factors = [
                f"{self.ctx.var_name(i + 1)}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(exp)
                if k > 0
            ]
            mono = "*".join(factors)
            if not mono:
                parts.append((c, str(abs(c))))
            elif abs(c) == 1:
                parts.append((c, mono))
            else:
                parts.append((c, f"{abs(c)}*{mono}"))
        out = ""
        for c, text in parts:
            if not out:
                out = ("-" if c < 0 else "") + text
            else:
                out += (" - " if c < 0 else " + ") + text
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _grlex_key(exp):
    return (sum(exp), exp)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m, with B_1 = -1/2 (so B_2 = 1/6, B_4 = -1/30).

    Convention anchored by the recurrence sum_{k=0}^{m} C(m+1,k) B_k = 0;
    only even indices are consumed downstream, where both standard
    conventions agree.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(m):
        acc += comb(m + 1, k) * bernoulli(k)
    return -acc / comb(m + 1, m)
