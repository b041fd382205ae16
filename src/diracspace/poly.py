"""Exact scalars and multivariate polynomials.

Scalars are `fractions.Fraction` throughout; nothing in this package ever
touches floating point.  Polynomials live over a coordinate patch of fixed
dimension n with variables x1..xn.  A polynomial is stored as integer
numerators over one positive common denominator: a map from exponent
vectors to nonzero `int`s and a `den` with ``gcd(den, *numerators) == 1``,
so each value has exactly one stored form.  The public surface reads and
takes `Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm


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


def _reduced(num: dict, den: int) -> tuple:
    """(num, den) with the content ``gcd(den, *num.values())`` divided
    out; ``num`` holds nonzero ints and ``den`` is positive."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            return {k: n // g for k, n in num.items()}, den // g
    return num, den


class _IntSum:
    """The int-numerator store that `Poly`, `graded.GPoly` and the
    `calculus` forms and multivectors share.

    ``_num`` maps keys to nonzero `int` numerators and ``_den`` is the
    positive common denominator, with ``gcd(_den, *_num.values()) == 1``;
    zero is ``({}, 1)``.  A subclass supplies ``_check(other)``, which
    raises `ValueError` on an operand of another class or context, and
    ``_like(num, den)``, which builds a result of its own kind from a map
    of nonzero numerators over a positive ``den`` through `_reduced`.
    """

    __slots__ = ("_num", "_den")

    @property
    def terms(self) -> dict:
        """A fresh map from keys to nonzero Fraction coefficients."""
        den = self._den
        return {k: Fraction(n, den) for k, n in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __add__(self, other):
        self._check(other)
        if not other._num:
            return self
        if not self._num:
            return other
        da, db = self._den, other._den
        if da == db:
            num = dict(self._num)
            items = other._num.items()
        else:
            den = lcm(da, db)
            sa, sb = den // da, den // db
            num = {k: c * sa for k, c in self._num.items()}
            items = [(k, c * sb) for k, c in other._num.items()]
            da = den
        for key, c in items:
            if key in num:
                s = num[key] + c
                if s:
                    num[key] = s
                else:
                    del num[key]
            else:
                num[key] = c
        return self._like(num, da)

    def __neg__(self):
        return self._like({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def _scale(self, other):
        """The scalar multiple by an int or Fraction ``other``;
        NotImplemented for any other operand."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.as_integer_ratio()
        if not p:
            return self._like({})
        if q == 1 and p in (1, -1):
            return self if p == 1 else -self
        return self._like({k: p * c for k, c in self._num.items()},
                          self._den * q)


class Poly(_IntSum):
    """Polynomial in x1..xn with rational coefficients.

    Stored as an `_IntSum` keyed by exponent tuples of length n.
    Instances are immutable by convention.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context, terms: dict | None = None):
        self.ctx = ctx
        num = {}
        den = 1
        if terms:
            for exp, c in terms.items():
                if not isinstance(c, (int, Fraction)):
                    _as_rat(c)  # raises the TypeError
                n, d = c.as_integer_ratio()
                # every key is checked, a zero coefficient's too; a
                # repeated vector (keys such as (0, 1) and range(2)) with
                # a nonzero coefficient is refused: it would leave den
                # above the lcm
                key = tuple(exp)
                if (len(key) != ctx.dim or any(e < 0 for e in key)
                        or n and key in num):
                    raise ValueError(f"bad exponent vector {exp} for dim {ctx.dim}")
                if not n:
                    continue
                if den % d:
                    scale = d // gcd(den, d)
                    for e in num:
                        num[e] *= scale
                    den *= scale
                num[key] = n * (den // d)
        self._num = num
        self._den = den

    @staticmethod
    def _raw(ctx: Context, num: dict, den: int = 1) -> "Poly":
        """Trusted constructor for arithmetic results: ``num`` maps valid
        exponent tuples to nonzero ints and ``den`` is positive; the
        content is divided out here."""
        out = object.__new__(Poly)
        out.ctx = ctx
        out._num, out._den = _reduced(num, den)
        return out

    @staticmethod
    def _collect(ctx: Context, num: dict, den: int = 1) -> "Poly":
        """`_raw` of an accumulated map whose numerators may be zero: the
        zeros are dropped here."""
        return Poly._raw(ctx, {e: n for e, n in num.items() if n}, den)

    def _like(self, num: dict, den: int = 1) -> "Poly":
        return Poly._raw(self.ctx, num, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Poly":
        return Poly._raw(ctx, {})

    @staticmethod
    def constant(ctx: Context, c) -> "Poly":
        c = _as_rat(c)
        if not c:
            return Poly._raw(ctx, {})
        return Poly._raw(ctx, {(0,) * ctx.dim: c.numerator}, c.denominator)

    @staticmethod
    def variable(ctx: Context, i: int) -> "Poly":
        if not 1 <= i <= ctx.dim:
            raise ValueError(f"variable index {i} out of range 1..{ctx.dim}")
        exp = [0] * ctx.dim
        exp[i - 1] = 1
        return Poly(ctx, {tuple(exp): Fraction(1)})

    # -- predicates ---------------------------------------------------

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._num)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self._num.values())), self._den)

    # -- arithmetic ---------------------------------------------------
    # Results are built with _raw: sums and decrements of valid exponent
    # vectors are valid, and every zero numerator is dropped where it
    # arises, so no result needs the public constructor's checks.

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise ValueError(f"expected a Poly, got a {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("context mismatch")

    # perfbench reads its poly hooks from the methods in this class's
    # own namespace, so the inherited sum is bound here
    __add__ = _IntSum.__add__

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            num: dict = {}
            get = num.get
            add = int.__add__
            for e1, c1 in self._num.items():
                for e2, c2 in other._num.items():
                    e = tuple(map(add, e1, e2))
                    num[e] = get(e, 0) + c1 * c2
            return Poly._collect(self.ctx, num, self._den * other._den)
        return self._scale(other)

    __rmul__ = __mul__

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
        # lowering one axis is injective on the terms that have it
        j = i - 1
        return Poly._raw(self.ctx, {e[:j] + (e[j] - 1,) + e[j + 1:]: n * e[j]
                                    for e, n in self._num.items() if e[j]},
                         self._den)

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
            rem_terms = rem.terms
            rl = max(rem_terms, key=_grlex_key)
            diff = tuple(a - b for a, b in zip(rl, lead))
            if any(d < 0 for d in diff):
                return None
            c = rem_terms[rl] / lc
            q_terms[diff] = q_terms.get(diff, Fraction(0)) + c
            rem = rem - Poly(self.ctx, {diff: c}) * f
        return Poly(self.ctx, q_terms)

    # -- comparison / printing ---------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        # the hash of the Fraction coefficients; an int hashes like the
        # Fraction of the same value
        items = self._num if self._den == 1 else self.terms
        return hash((self.ctx, frozenset(items.items())))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        den = self._den
        out = ""
        for exp in sorted(self._num, key=_grlex_key, reverse=True):
            n = self._num[exp]
            g = gcd(n, den)
            a, d = abs(n) // g, den // g
            coef = str(a) if d == 1 else f"{a}/{d}"
            mono = "*".join(
                f"{self.ctx.var_name(i + 1)}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(exp)
                if k > 0
            )
            if not mono:
                text = coef
            elif a == 1 and d == 1:
                text = mono
            else:
                text = f"{coef}*{mono}"
            if not out:
                out = ("-" if n < 0 else "") + text
            else:
                out += (" - " if n < 0 else " + ") + text
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
