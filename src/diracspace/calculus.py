"""Cartan calculus on a coordinate patch.

Differential forms, vector fields and multivector fields with polynomial
coefficients, plus wedge, contraction, de Rham differential, Lie derivative
and brackets.  Index tuples are 1-based and strictly increasing.

Sign convention of the repo: contraction by a decomposable multivector
nests innermost-first, iota_{X1^...^Xq} = iota_{Xq} o ... o iota_{X1},
i.e. the first wedge factor is contracted first.  Contraction of a form
into a multivector pairs the form factors against the first slots of the
multivector in the same order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .poly import (Context, Poly, _IntSum, _as_rat, _brackets, _from_terms,
                   _layout, _overflow, _poly_str, _product_sum, _products,
                   _reduced)


def _sort_sign(seq, odd=None):
    """Insertion-sort ``seq``; return (Koszul sign, sorted tuple).

    Swapping two neighbours costs -1 when ``odd`` holds for both (every
    entry is odd when ``odd`` is None); a repeated odd entry gives
    (0, ()).  ``odd`` is consulted only on swapped or equal neighbours,
    so an already sorted word costs no parity lookups.
    """
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            if odd is None or (odd(seq[j - 1]) and odd(seq[j])):
                sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b and (odd is None or odd(a)):
            return 0, ()
    return sign, tuple(seq)


def _check(a, b, kind_a: type, kind_b: type) -> None:
    """Require ``a`` of kind ``kind_a`` and ``b`` of kind ``kind_b`` (Form
    or MultiVec; a VField is a MultiVec) over one context."""
    if not (isinstance(a, kind_a) and isinstance(b, kind_b)):
        raise ValueError(f"expected a {kind_a.__name__} and a "
                         f"{kind_b.__name__}, got a {type(a).__name__} "
                         f"and a {type(b).__name__}")
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")


def _kind(a) -> type:
    return MultiVec if isinstance(a, MultiVec) else Form


class _Graded(_IntSum):
    """Shared storage for forms and multivectors: an `_IntSum` keyed by
    (index tuple, packed exponents), with its context and degree.

    ``_prefix`` names the basis ("dx" or "Dx") and is the kind that
    equality and hashing compare, so subclasses of one kind are equal
    when their terms are.
    """

    __slots__ = ("ctx", "degree")

    def __init__(self, ctx: Context, degree: int, comps: dict | None = None):
        self.ctx = ctx
        self.degree = degree
        clean = []
        for idx, c in (comps or {}).items():
            idx = tuple(idx)
            if isinstance(c, (int, Fraction)):
                c = Poly.constant(ctx, c)
            if c.is_zero():
                continue
            if c.ctx is not ctx and c.ctx != ctx:
                raise ValueError("context mismatch")
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if idx and not (1 <= idx[0] and idx[-1] <= ctx.dim):
                raise ValueError(f"index tuple {idx} out of range")
            clean.append((idx, c))
        # over the lcm of the component denominators no content is left
        den = lcm(*[c._den for _, c in clean])
        self._num = {(idx, e): n * (den // c._den)
                     for idx, c in clean for e, n in c._num.items()}
        self._den = den

    @classmethod
    def _raw(cls, ctx: Context, degree: int, num: dict, den: int = 1):
        """Trusted constructor for results: ``num`` maps (strictly
        increasing in-range index tuple of length ``degree``, packed
        exponents) keys to nonzero ints over a positive ``den``, so nothing
        is re-validated (a VField is built as well)."""
        out = object.__new__(cls)
        out.ctx = ctx
        out.degree = degree
        out._num, out._den = _reduced(num, den)
        return out

    @classmethod
    def _collect(cls, ctx: Context, degree: int, num: dict, den: int = 1):
        """`_raw` of an accumulated map whose numerators may be zero."""
        return cls._raw(ctx, degree, {k: n for k, n in num.items() if n}, den)

    def _like(self, num: dict, den: int = 1):
        return type(self)._raw(self.ctx, self.degree, num, den)

    @classmethod
    def zero(cls, ctx: Context, degree: int = 0):
        return cls._raw(ctx, degree, {})

    @classmethod
    def basis(cls, ctx: Context, idx: tuple):
        return cls(ctx, len(idx), {tuple(idx): 1})

    @property
    def comps(self) -> dict:
        """A fresh map from index tuples to nonzero Poly coefficients."""
        parts: dict = {}
        for (idx, e), n in self._num.items():
            parts.setdefault(idx, {})[e] = n
        return {idx: Poly._raw(self.ctx, num, self._den)
                for idx, num in parts.items()}

    def is_constant(self) -> bool:
        return not any(e for _, e in self._num)

    def as_degree(self, k: int, what: str):
        """This value as one of degree ``k``: itself when its degree is
        ``k``, and the zero of degree ``k`` of its kind (Form or MultiVec)
        when it is zero; any other value raises ValueError naming
        ``what``."""
        if self.degree == k:
            return self
        if not self._num:
            return _kind(self).zero(self.ctx, k)
        raise ValueError(f"{what} has degree {self.degree}, expected {k}")

    def _part(self, idx: tuple) -> Poly:
        """The coefficient of the basis element ``idx``."""
        return Poly._raw(self.ctx, {e: n for (i, e), n in self._num.items()
                                    if i == idx}, self._den)

    def __eq__(self, other) -> bool:
        # zeros of any degree are equal; otherwise the keys fix the degree
        return (isinstance(other, _Graded) and self._prefix == other._prefix
                and self.ctx == other.ctx and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self._prefix, self.ctx, self._den,
                     frozenset(self._num.items())))

    def _check(self, other):
        kind = _kind(self)
        _check(self, other, kind, kind)
        if self.degree != other.degree and self._num and other._num:
            raise ValueError("degree mismatch in sum")

    # perfbench reads its calculus hooks from the methods in this class's
    # own namespace, so the inherited sum is bound here
    __add__ = _IntSum.__add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self._scale(other)
        if other.ctx != self.ctx:
            raise ValueError("context mismatch")
        # a Poly multiplies as the 0-form it is
        return self._like(*_products(self, Form.from_poly(other), _wedge_idx))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        comps: dict = {}
        for (idx, e), n in self._num.items():
            comps.setdefault(idx, {})[e] = n
        den, one = self._den, {0: self._den}
        parts = []
        for idx in sorted(comps):
            num = comps[idx]
            c = _poly_str(self.ctx, num, den)
            basis = "^".join(f"{self._prefix}{i}" for i in idx)
            if not basis:
                parts.append(c)
            elif num == one:
                parts.append(basis)
            elif len(num) == 1:
                parts.append(f"{c}*{basis}")
            else:
                parts.append(f"({c})*{basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Form(_Graded):
    """Differential k-form; components indexed by increasing tuples."""

    _prefix = "dx"

    @staticmethod
    def from_poly(f: Poly) -> "Form":
        return Form._raw(f.ctx, 0, {((), e): n for e, n in f._num.items()},
                         f._den)

    def to_poly(self) -> Poly:
        return self.as_degree(0, "form")._part(())


class MultiVec(_Graded):
    """Multivector field of degree q."""

    _prefix = "Dx"

    def to_vfield(self) -> "VField":
        self.as_degree(1, "multivector")
        return VField._raw(self.ctx, 1, self._num, self._den)


class VField(MultiVec):
    """Vector field: the degree-1 MultiVec, built from the coefficients
    of d/dx_i as {i: coefficient}.  Its sums and multiples stay VFields."""

    def __init__(self, ctx: Context, comps: dict | None = None):
        super().__init__(ctx, 1, {(i,): c for i, c in (comps or {}).items()})

    @staticmethod
    def zero(ctx: Context) -> "VField":
        return VField._raw(ctx, 1, {})

    @staticmethod
    def basis(ctx: Context, i: int) -> "VField":
        return VField(ctx, {i: 1})

    def component(self, i: int) -> Poly:
        return self._part((i,))

    def to_multivec(self) -> MultiVec:
        return MultiVec._raw(self.ctx, 1, self._num, self._den)

    def __call__(self, f: Poly) -> Poly:
        """Directional derivative X(f)."""
        out = Poly.zero(self.ctx)
        for (i,), c in self.comps.items():
            out = out + c * f.partial(i)
        return out


# ---------------------------------------------------------------------
# constant coordinates: one per increasing index tuple, in
# `itertools.combinations` order


def const(cls: type, ctx: Context, degree: int, coords):
    """The constant ``cls`` (Form, MultiVec or VField) of ``degree`` with
    these int or Fraction coordinates, exactly one per component."""
    idxs, coords = list(combinations(ctx.axes(), degree)), list(coords)
    if len(coords) != len(idxs):
        raise ValueError(f"{len(coords)} coordinates for the {len(idxs)} "
                         f"components of degree {degree} in dimension "
                         f"{ctx.dim}")
    return cls._raw(ctx, degree, *_from_terms(
        ((idx, 0), *_as_rat(c).as_integer_ratio())
        for idx, c in zip(idxs, coords)))


def coords(a: _Graded) -> list[Fraction]:
    """Coordinates of a constant Form or MultiVec, as ``const`` takes."""
    if not a.is_constant():
        raise ValueError(f"coordinates of a non-constant "
                         f"{type(a).__name__}")
    num, den = a._num, a._den
    return [Fraction(num.get((idx, 0), 0), den)
            for idx in combinations(a.ctx.axes(), a.degree)]


# ---------------------------------------------------------------------
# wedge products


@lru_cache(maxsize=4096)
def _wedge_idx(I: tuple, J: tuple) -> tuple:
    """(sign, sorted I + J), or (0, ()) when I and J share an axis."""
    return _sort_sign(I + J)


def wedge(a: Form | MultiVec, b: Form | MultiVec) -> Form | MultiVec:
    """Wedge product of two forms or of two multivectors."""
    kind = _kind(a)
    _check(a, b, kind, kind)
    deg = a.degree + b.degree
    if deg > a.ctx.dim:
        return kind.zero(a.ctx, deg)
    return kind._raw(a.ctx, deg, *_products(a, b, _wedge_idx))


# ---------------------------------------------------------------------
# contraction


@lru_cache(maxsize=4096)
def _contract_idx(K: tuple, I: tuple) -> tuple:
    """(sign, rest) of contracting the axes of K in order out of I: the
    sign of the permutation taking K + rest to I; (0, ()) when I lacks
    an axis of K."""
    rest = tuple(i for i in I if i not in K)
    if len(rest) + len(K) != len(I):
        return 0, ()
    return _sort_sign(K + rest)[0], rest


def contract(Y: MultiVec, a: Form) -> Form:
    """Interior product iota_Y a for Y a multivector (a VField included).

    Decomposable multivectors contract first-factor-first; the convention
    test iota_{D1^D2}(dx1^dx2^dx3) = dx3 pins the sign.
    """
    _check(Y, a, MultiVec, Form)
    deg = a.degree - Y.degree
    if deg < 0:
        return Form.zero(a.ctx, deg)
    return Form._raw(a.ctx, deg, *_products(Y, a, _contract_idx))


def contract_sum(ctx: Context, degree: int, parts, div: int = 1) -> Form:
    """The sum of c * iota_Y a / div over the (int c, Y, a) of ``parts``,
    each iota_Y a a form of ``degree``, in one pass of the product loop,
    with no form built per part; ``div`` is a positive int.  A negative
    ``degree`` gives the zero form of that degree, as `contract` does."""
    parts = list(parts)
    for _, Y, a in parts:
        _check(Y, a, MultiVec, Form)
        if a.ctx != ctx:
            raise ValueError("context mismatch")
        if a.degree - Y.degree != degree and Y._num and a._num:
            raise ValueError(f"a contraction of degree {a.degree - Y.degree}"
                             f" in a sum of degree {degree}")
    if degree < 0:
        return Form.zero(ctx, degree)
    return Form._raw(ctx, degree, *_product_sum(parts, _contract_idx, ctx,
                                                div))


def iota_form(alpha: Form, pi: MultiVec) -> MultiVec:
    """Contraction of a form into a multivector, form factors against the
    first slots of pi in order; for a bivector iota_alpha pi = pi(alpha, .)."""
    _check(alpha, pi, Form, MultiVec)
    deg = pi.degree - alpha.degree
    if deg < 0:
        return MultiVec.zero(pi.ctx, deg)
    return MultiVec._raw(pi.ctx, deg, *_products(alpha, pi, _contract_idx))


# ---------------------------------------------------------------------
# derivatives and brackets


@lru_cache(maxsize=4096)
def _d_rule(idx: tuple, dim: int) -> tuple:
    """(shift, unit, sign, word) of dx_i ^ dx_idx for each axis i not in
    ``idx``, with the shift and unit of the field of x_i in the packed
    exponents of ``dim`` variables."""
    return tuple((sh, 1 << sh, *_wedge_idx((i,), idx))
                 for i, sh in enumerate(_layout(dim).shifts, 1)
                 if i not in idx)


def deRham(a: Form) -> Form:
    deg = a.degree + 1
    dim = a.ctx.dim
    if deg > dim:
        return Form.zero(a.ctx, deg)
    num: dict = {}
    get = num.get
    for (idx, e), n in a._num.items():
        for sh, unit, sign, merged in _d_rule(idx, dim):
            k = e >> sh & 0x7FFF
            if k:
                key = (merged, e - unit)
                num[key] = get(key, 0) + sign * k * n
    return Form._collect(a.ctx, deg, num, a._den)


def poincare_primitive(a: Form) -> Form:
    """A primitive of a closed polynomial form of degree >= 1.

    Homotopy operator for the radial contraction: kappa a = iota_E a',
    with E the Euler field and a' the form a with each term x^e dx_I of
    form degree k divided by |e| + k; d(kappa a) = a whenever da = 0.
    Contracting x_i d/dx_i out of dx_I at position t costs (-1)^t.
    """
    k = a.degree
    if k < 1:
        raise ValueError("primitives exist for forms of degree >= 1")
    unpack, shifts = a.ctx._layout.unpack, a.ctx._layout.shifts
    weight = {e: sum(unpack(e)) + k for _, e in a._num}
    m = lcm(*weight.values())
    num: dict = {}
    get = num.get
    for (idx, e), n in a._num.items():
        n *= m // weight[e]
        for t, i in enumerate(idx):
            key = (idx[:t] + idx[t + 1:], e + (1 << shifts[i - 1]))
            num[key] = get(key, 0) + (-n if t % 2 else n)
    _overflow([e for _, e in num], a.ctx._layout.guard)
    return Form._collect(a.ctx, k - 1, num, a._den * m)


def lie_derivative(X: VField, a: Form) -> Form:
    """Cartan formula L_X = d iota_X + iota_X d."""
    return deRham(contract(X, a)) + contract(X, deRham(a))


def lie_derivative_direct(X: VField, a: Form) -> Form:
    """Derivation formula for L_X, used as an independent cross-check."""
    out = Form(a.ctx, a.degree, {idx: X(c) for idx, c in a.comps.items()})
    for idx, c in a.comps.items():
        for t, i in enumerate(idx):
            # replace dx_i by dX^i
            dXi = deRham(Form.from_poly(X.component(i)))
            pre = Form.basis(a.ctx, idx[:t])
            post = Form.basis(a.ctx, idx[t + 1:])
            out = out + c * wedge(wedge(pre, dXi), post)
    return out


@lru_cache(maxsize=4096)
def _bracket_rule(K: tuple, M: tuple) -> tuple:
    """[f D_K, g D_M] as `poly._brackets` entries (src, j, sign, idx)
    read off the `schouten` formula: an entry adds sign * f d_j(g) D_idx
    for src 1 and sign * g d_j(f) D_idx for src 2, d_j the partial
    derivative by x_(j+1); a word that repeats an axis is left out."""
    rule = []
    for a, k in enumerate(K):
        sign, idx = _wedge_idx(M[:1] + K[:a] + K[a + 1:], M[1:])
        if sign:
            rule.append((1, k - 1, -sign if a % 2 else sign, idx))
    for b, m in enumerate(M):
        sign, idx = _wedge_idx(K, M[:b] + M[b + 1:])
        if sign:
            rule.append((2, m - 1, sign if b % 2 else -sign, idx))
    return tuple(rule)


def lie_bracket(X: VField, Y: VField) -> VField:
    """[X, Y]_j = X_i d_i Y_j - Y_i d_i X_j: `schouten` in degree 1."""
    _check(X, Y, MultiVec, MultiVec)
    if X.degree != 1 or Y.degree != 1:
        raise ValueError("lie_bracket takes two vector fields")
    return VField._raw(X.ctx, 1, *_brackets(X, Y, _bracket_rule))


def schouten(P: MultiVec, Q: MultiVec) -> MultiVec:
    """Schouten bracket of multivector fields of degree >= 1.

    On components, with a and b the 0-based positions in K and M,

        [f D_K, g D_M] = sum_a (-1)^a f d_{K_a}g D_{M_0} ^ D_{K - K_a} ^ D_{M - M_0}
                       - sum_b (-1)^b g d_{M_b}f D_K ^ D_{M - M_b},

    the decomposable formula [X1^...^Xp, Y1^...^Yq] =
    sum_{i,j} (-1)^{i+j} [Xi,Yj] ^ X1..^hat Xi..^Xp ^ Y1..^hat Yj..^Yq
    with each coefficient on its first wedge factor: only brackets with
    a coefficient-carrying factor survive.  A word that repeats an axis
    drops.  Reduces to the Lie bracket on vector fields.
    """
    _check(P, Q, MultiVec, MultiVec)
    if P.degree < 1 or Q.degree < 1:
        raise ValueError("schouten is implemented for degrees >= 1")
    return MultiVec._raw(P.ctx, P.degree + Q.degree - 1,
                         *_brackets(P, Q, _bracket_rule))
