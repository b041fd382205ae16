"""Exact scalars and multivariate polynomials.

Scalars are `fractions.Fraction` throughout; nothing in this package ever
touches floating point.  Polynomials live over a coordinate patch of fixed
dimension n with variables x1..xn.  A polynomial is stored as integer
numerators over one positive common denominator: a map from exponent
vectors to nonzero `int`s and a `den` with ``gcd(den, *numerators) == 1``,
so each value has exactly one stored form.  The public surface reads and
takes `Fraction`s.

An exponent vector is stored packed into one int: each variable has a
16-bit field, 15 value bits under one guard bit, and x1 sits in the
highest field, so int order is the lex order of the exponent tuples.
Adding two keys adds their vectors without a carry between fields, and
an exponent above ``EXPONENT_CEILING`` sets a guard bit, which every
producer of a key tests, so an overflow raises `ValueError` and nothing
wraps.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import or_

EXPONENT_CEILING = 0x7FFF   # largest exponent of one variable: 15 bits


# the packed keys of one dimension: ``pack`` packs the exponents into
# big-endian bytes of one 16-bit field per variable, ``guard`` is the
# mask of the guard bits, ``shifts[j]`` the shift of the field of x(j+1),
# and ``unpack`` maps a key to its exponent tuple
_Layout = namedtuple("_Layout", "pack guard shifts unpack")


@lru_cache(maxsize=64)
def _layout(dim: int) -> _Layout:
    codec = struct.Struct(f">{dim}H")
    unpack, size = codec.unpack, codec.size
    return _Layout(codec.pack, int.from_bytes(b"\x80\0" * dim, "big"),
                   tuple(16 * (dim - 1 - j) for j in range(dim)),
                   lambda key: unpack(key.to_bytes(size, "big")))


@dataclass(frozen=True)
class Context:
    """A coordinate patch: global R^n with variables x1..xn."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("patch dimension must be >= 1")
        # the packed key layout: not a field, and shared by equal contexts
        object.__setattr__(self, "_layout", _layout(self.dim))

    def var_name(self, i: int) -> str:
        return f"x{i}"

    def axes(self) -> range:
        """Axis indices, 1-based."""
        return range(1, self.dim + 1)


def _pack(ctx: Context, exp) -> int:
    """The packed key of the exponent vector ``exp``; ValueError unless
    it holds ``ctx.dim`` ints in 0..EXPONENT_CEILING."""
    pack, guard, _, _ = ctx._layout
    try:
        key = int.from_bytes(pack(*exp), "big")
    except (struct.error, TypeError):   # TypeError: not a sequence
        key = guard
    if key & guard:
        raise ValueError(f"bad exponent vector {exp} for dim {ctx.dim}: "
                         f"expected ints in 0..{EXPONENT_CEILING}")
    return key


def _overflow(keys, guard: int) -> None:
    """Raise ValueError when a key of ``keys``, packed exponents that
    are sums of valid keys, has an exponent above the ceiling."""
    if reduce(or_, keys, 0) & guard:
        raise ValueError(f"exponent above {EXPONENT_CEILING} in a product")


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


def _from_terms(terms) -> tuple:
    """The reduced (num, den) of the sum of n/d at key over the
    (key, n, d) triples of ``terms``, each d positive: the numerators of
    one key add over a common denominator that grows, in one pass, as
    the terms need it; zero terms and zero sums drop, and the content is
    divided out."""
    num: dict = {}
    get = num.get
    den = 1
    for key, n, d in terms:
        if d != den:
            if den % d:
                scale = d // gcd(den, d)
                for k in num:
                    num[k] *= scale
                den *= scale
            n *= den // d
        n += get(key, 0)
        if n:
            num[key] = n
        else:
            num.pop(key, None)
    return _reduced(num, den)


class _IntSum:
    """The int-numerator store that `Poly`, `graded.GPoly`, the
    `calculus` forms and multivectors and the parser's sums share; all
    but `Poly` key it by (word, packed exponents), and `Poly` by the
    packed exponents alone.

    ``_num`` maps keys to nonzero `int` numerators and ``_den`` is the
    positive common denominator, with ``gcd(_den, *_num.values()) == 1``;
    zero is ``({}, 1)``.  A subclass has a ``ctx`` and supplies
    ``_check(other)``, which raises `ValueError` on an operand of another
    class or context, and ``_like(num, den)``, which builds a result of
    its own kind from a map of nonzero numerators over a positive ``den``
    through `_reduced`.
    """

    __slots__ = ("_num", "_den")

    @property
    def terms(self) -> dict:
        """A fresh map from (word, exponent tuple) keys to nonzero
        Fraction coefficients."""
        den, unpack = self._den, self.ctx._layout.unpack
        return {(w, unpack(e)): Fraction(n, den)
                for (w, e), n in self._num.items()}

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


# ---------------------------------------------------------------------
# term-pair kernels for stores keyed by (word, packed exponents): every
# product and bracket of forms, multivectors, graded polynomials and the
# parser's sums.  Each returns the (num, den) of its result over
# a._den * b._den (a sum of products over the lcm of those) with zero
# numerators dropped, for `_raw` or `_like`, and raises ValueError when
# the exponents of a pair of terms add past the ceiling.  The terms of
# ``b`` are grouped by word once, so the rule is read once per term of
# ``a`` and word of ``b``.


def _by_word(b: _IntSum) -> dict:
    """The terms of ``b`` as {word: [(packed exponents, numerator)]}."""
    groups: dict = {}
    for (w, e), n in b._num.items():
        groups.setdefault(w, []).append((e, n))
    return groups


def _done(num: dict, ctx: Context, den: int) -> tuple:
    """(num, den) with the zero numerators of ``num`` dropped, after the
    ceiling test of every exponent summed."""
    _overflow([e for _, e in num], ctx._layout.guard)
    return {k: n for k, n in num.items() if n}, den


def _add_products(num: dict, a: _IntSum, b: _IntSum, rule, f: int) -> None:
    """Add f * sign * ca * cb to ``num`` at (word, ea + eb) over the
    terms (wa, ea) of ``a`` and (wb, eb) of ``b``, where rule(wa, wb) =
    (sign, word); a zero sign drops the pair.  The one per-pair loop of
    every product."""
    get = num.get
    groups = _by_word(b).items()
    for (wa, ea), ca in a._num.items():
        ca *= f
        for wb, terms in groups:
            sign, word = rule(wa, wb)
            if sign:
                c = sign * ca
                for eb, cb in terms:
                    key = (word, ea + eb)
                    num[key] = get(key, 0) + c * cb


def _products(a: _IntSum, b: _IntSum, rule) -> tuple:
    """The product of ``a`` and ``b`` under ``rule``, as `_add_products`
    sums it."""
    if not (a._num and b._num):
        return {}, 1
    num: dict = {}
    _add_products(num, a, b, rule, 1)
    return _done(num, a.ctx, a._den * b._den)


def _product_sum(parts, rule, ctx: Context, div: int = 1) -> tuple:
    """The sum of c * (a x b) / div over the (int c, a, b) of ``parts``,
    each product under ``rule``, summed in one dict over the lcm of the
    products' denominators; ``div`` is a positive int."""
    parts = [(c, a, b) for c, a, b in parts if c and a._num and b._num]
    if not parts:
        return {}, 1
    den = lcm(*[a._den * b._den for _, a, b in parts])
    num: dict = {}
    for c, a, b in parts:
        _add_products(num, a, b, rule, c * (den // (a._den * b._den)))
    return _done(num, ctx, den * div)


def _brackets(a: _IntSum, b: _IntSum, rule) -> tuple:
    """The sum over the terms (wa, ea) of ``a`` and (wb, eb) of ``b`` of
    the entries (src, j, sign, word) of rule(wa, wb): source 0 adds
    sign * ca * cb at (word, ea + eb); source 1 (2) also multiplies by
    the exponent of x(j+1) in eb (ea) and lowers it by one in ea + eb,
    so it is the term of a first-order derivative."""
    if not (a._num and b._num):
        return {}, 1
    num: dict = {}
    get = num.get
    groups = _by_word(b).items()
    shifts = a.ctx._layout.shifts
    for (wa, ea), ca in a._num.items():
        for wb, terms in groups:
            for src, j, sign, word in rule(wa, wb):
                c = sign * ca
                if not src:
                    for eb, cb in terms:
                        key = (word, ea + eb)
                        num[key] = get(key, 0) + c * cb
                    continue
                # ea + eb - unit has no borrow: its field j is >= 1
                sh = shifts[j]
                base = ea - (1 << sh)
                if src == 1:
                    for eb, cb in terms:
                        k = eb >> sh & 0x7FFF
                        if k:
                            key = (word, base + eb)
                            num[key] = get(key, 0) + k * c * cb
                    continue
                k = ea >> sh & 0x7FFF
                if k:
                    c *= k
                    for eb, cb in terms:
                        key = (word, base + eb)
                        num[key] = get(key, 0) + c * cb
    return _done(num, a.ctx, a._den * b._den)


class Poly(_IntSum):
    """Polynomial in x1..xn with rational coefficients.

    Stored as an `_IntSum` keyed by packed exponent vectors; ``terms``
    and the constructor use exponent tuples of length n.  Instances are
    immutable by convention.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context, terms: dict | None = None):
        self.ctx = ctx
        rows = []
        for exp, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                _as_rat(c)  # raises the TypeError
            n, d = c.as_integer_ratio()
            # every key is checked, a zero coefficient's too
            key = _pack(ctx, exp)
            if n:
                rows.append((key, n, d))
        self._num, self._den = _from_terms(rows)
        # keys such as (0, 1) and range(2) name one vector: two nonzero
        # coefficients for it are ambiguous, and leave fewer terms than rows
        if len(self._num) < len(rows):
            raise ValueError(f"repeated exponent vector for dim {ctx.dim}")

    @staticmethod
    def _raw(ctx: Context, num: dict, den: int = 1) -> "Poly":
        """Trusted constructor for arithmetic results: ``num`` maps valid
        packed exponents to nonzero ints and ``den`` is positive; the
        content is divided out here."""
        out = object.__new__(Poly)
        out.ctx = ctx
        out._num, out._den = _reduced(num, den)
        return out

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
        return Poly._raw(ctx, {0: c.numerator}, c.denominator)

    @staticmethod
    def variable(ctx: Context, i: int) -> "Poly":
        if not 1 <= i <= ctx.dim:
            raise ValueError(f"variable index {i} out of range 1..{ctx.dim}")
        exp = [0] * ctx.dim
        exp[i - 1] = 1
        return Poly(ctx, {tuple(exp): Fraction(1)})

    @property
    def terms(self) -> dict:
        """A fresh map from exponent tuples to nonzero Fraction
        coefficients."""
        den, unpack = self._den, self.ctx._layout.unpack
        return {unpack(e): Fraction(n, den) for e, n in self._num.items()}

    # -- predicates ---------------------------------------------------

    def is_constant(self) -> bool:
        # the one constant key is 0
        return not any(self._num)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self._num.values())), self._den)

    # -- arithmetic ---------------------------------------------------
    # Results are built with _raw: sums of valid keys are tested against
    # the ceiling, decrements are valid, and every zero numerator is
    # dropped where it arises, so no result needs the public
    # constructor's checks.

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
            items = other._num.items()
            for e1, c1 in self._num.items():
                for e2, c2 in items:
                    e = e1 + e2
                    num[e] = get(e, 0) + c1 * c2
            _overflow(num, self.ctx._layout.guard)
            return Poly._raw(self.ctx, {e: n for e, n in num.items() if n},
                             self._den * other._den)
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
        sh = self.ctx._layout.shifts[i - 1]
        unit = 1 << sh
        return Poly._raw(self.ctx, {e - unit: n * k
                                    for e, n in self._num.items()
                                    if (k := e >> sh & 0x7FFF)},
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
        return hash((self.ctx, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return _poly_str(self.ctx, self._num, self._den)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _poly_str(ctx: Context, num: dict, den: int) -> str:
    """The text of the polynomial with numerators ``num``, keyed by
    packed exponents, over ``den``: its terms in graded lex order,
    highest first."""
    if not num:
        return "0"
    name = ctx.var_name
    out = ""
    # packed keys order like their tuples, and each is unpacked once, to
    # print it
    for _, _, exp, n in sorted(
            [(sum(t), e, t, n) for (e, n), t in
             zip(num.items(), map(ctx._layout.unpack, num))],
            reverse=True):
        g = gcd(n, den)
        a, d = abs(n) // g, den // g
        coef = str(a) if d == 1 else f"{a}/{d}"
        mono = "*".join([name(i + 1) + (f"^{k}" if k > 1 else "")
                         for i, k in enumerate(exp) if k])
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
