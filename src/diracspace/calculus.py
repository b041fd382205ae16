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
from math import lcm

from .poly import Context, Poly


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


class _Graded:
    """Shared storage for forms and multivectors: degree + component map.

    ``_prefix`` names the basis ("dx" or "Dx") and is the kind that
    equality and hashing compare, so subclasses of one kind are equal
    when their components are.
    """

    __slots__ = ("ctx", "degree", "comps")

    def __init__(self, ctx: Context, degree: int, comps: dict | None = None):
        self.ctx = ctx
        self.degree = degree
        clean: dict = {}
        if comps and 0 <= degree <= ctx.dim:
            for idx, c in comps.items():
                idx = tuple(idx)
                if isinstance(c, (int, Fraction)):
                    c = Poly.constant(ctx, c)
                if c.is_zero():
                    continue
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise ValueError(f"bad index tuple {idx} for degree {degree}")
                if idx and not (1 <= idx[0] and idx[-1] <= ctx.dim):
                    raise ValueError(f"index tuple {idx} out of range")
                clean[idx] = c
        self.comps = clean

    @classmethod
    def _raw(cls, ctx: Context, degree: int, comps: dict):
        """Trusted constructor for results: ``comps`` maps strictly
        increasing in-range index tuples of length ``degree`` to nonzero
        Polys, so nothing is re-validated (a VField is built as well)."""
        out = object.__new__(cls)
        out.ctx = ctx
        out.degree = degree
        out.comps = comps
        return out

    @classmethod
    def zero(cls, ctx: Context, degree: int = 0):
        return cls(ctx, degree)

    @classmethod
    def basis(cls, ctx: Context, idx: tuple):
        return cls(ctx, len(idx), {tuple(idx): Poly.constant(ctx, 1)})

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        if (not isinstance(other, _Graded) or self._prefix != other._prefix
                or self.ctx != other.ctx):
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.comps == other.comps

    def __hash__(self):
        return hash((self._prefix, self.ctx, frozenset(self.comps.items())))

    def __add__(self, other):
        _check(self, other, _kind(self), _kind(self))
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("degree mismatch in sum")
        comps = dict(self.comps)
        for idx, c in other.comps.items():
            prev = comps.get(idx)
            if prev is None:
                comps[idx] = c
            elif (c := prev + c).is_zero():
                del comps[idx]
            else:
                comps[idx] = c
        return type(self)._raw(self.ctx, self.degree, comps)

    def __neg__(self):
        return type(self)._raw(self.ctx, self.degree,
                               {i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return type(self)._raw(self.ctx, self.degree, {
            i: p for i, c in self.comps.items()
            if not (p := c * other).is_zero()})

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for idx in sorted(self.comps):
            c = self.comps[idx]
            basis = "^".join(f"{self._prefix}{i}" for i in idx)
            if not basis:
                parts.append(str(c))
            elif c == Poly.constant(self.ctx, 1):
                parts.append(basis)
            elif len(c.terms) == 1:
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
        return Form(f.ctx, 0, {(): f})

    def to_poly(self) -> Poly:
        if self.degree != 0 and not self.is_zero():
            raise ValueError("not a 0-form")
        return self.comps.get(()) or Poly.zero(self.ctx)

    def __str__(self) -> str:
        if self.degree == 0 and not self.is_zero():
            return str(self.to_poly())
        return super().__str__()


class MultiVec(_Graded):
    """Multivector field of degree q."""

    _prefix = "Dx"

    def to_vfield(self) -> "VField":
        if self.degree != 1 and not self.is_zero():
            raise ValueError("not a 1-vector")
        return VField(self.ctx, {i[0]: c for i, c in self.comps.items()})


class VField(MultiVec):
    """Vector field: the degree-1 MultiVec, built from the coefficients
    of d/dx_i as {i: coefficient}.  Its sums and multiples stay VFields."""

    def __init__(self, ctx: Context, comps: dict | None = None):
        super().__init__(ctx, 1, {(i,): c for i, c in (comps or {}).items()})

    @staticmethod
    def zero(ctx: Context) -> "VField":
        return VField(ctx)

    @staticmethod
    def basis(ctx: Context, i: int) -> "VField":
        return VField(ctx, {i: Poly.constant(ctx, 1)})

    def component(self, i: int) -> Poly:
        return self.comps.get((i,)) or Poly.zero(self.ctx)

    def to_multivec(self) -> MultiVec:
        return MultiVec(self.ctx, 1, self.comps)

    def __call__(self, f: Poly) -> Poly:
        """Directional derivative X(f)."""
        out = Poly.zero(self.ctx)
        for (i,), c in self.comps.items():
            out = out + c * f.partial(i)
        return out


# ---------------------------------------------------------------------
# integer kernels: each operand's components are read as int numerators
# over the lcm of their denominators, products are accumulated per
# (index tuple, exponent tuple), and every result Poly is built once


def _scaled(comps: dict) -> tuple:
    """([(index, (exponent, numerator) pairs), ...], den): the components
    over their common denominator ``den``."""
    den = lcm(*[c._den for c in comps.values()])
    return [(idx, c._num.items() if c._den == den else
             [(e, n * (den // c._den)) for e, n in c._num.items()])
            for idx, c in comps.items()], den


def _mul_into(num: dict, sign: int, fa: list, gb: list) -> None:
    """Add sign * fa * gb into the numerator map ``num``."""
    add, get = int.__add__, num.get
    for e1, c1 in fa:
        c1 *= sign
        for e2, c2 in gb:
            e = tuple(map(add, e1, e2))
            num[e] = get(e, 0) + c1 * c2


def _d(terms: list, i: int) -> list:
    """The partial derivative d/dx_i of a numerator list."""
    j = i - 1
    return [(e[:j] + (e[j] - 1,) + e[j + 1:], n * e[j])
            for e, n in terms if e[j]]


def _comps(ctx: Context, acc: dict, den: int) -> dict:
    """The nonzero Polys of the numerator maps in ``acc`` over ``den``."""
    out = {}
    for idx, num in acc.items():
        c = Poly._collect(ctx, num, den)
        if not c.is_zero():
            out[idx] = c
    return out


def _bilinear(a: dict, b: dict, rule, ctx: Context) -> dict:
    """Sum of sign * f * g at idx over the components (I, f) of ``a``
    and (J, g) of ``b``, where rule(I, J) = (sign, idx); a zero sign
    drops the pair."""
    A, da = _scaled(a)
    B, db = _scaled(b)
    acc: dict = {}
    for I, fa in A:
        for J, gb in B:
            sign, idx = rule(I, J)
            if sign:
                _mul_into(acc.setdefault(idx, {}), sign, fa, gb)
    return _comps(ctx, acc, da * db)


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
    return kind._raw(a.ctx, deg, _bilinear(a.comps, b.comps, _wedge_idx, a.ctx))


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
    return Form._raw(a.ctx, deg,
                     _bilinear(Y.comps, a.comps, _contract_idx, a.ctx))


def iota_form(alpha: Form, pi: MultiVec) -> MultiVec:
    """Contraction of a form into a multivector, form factors against the
    first slots of pi in order; for a bivector iota_alpha pi = pi(alpha, .)."""
    _check(alpha, pi, Form, MultiVec)
    deg = pi.degree - alpha.degree
    if deg < 0:
        return MultiVec.zero(pi.ctx, deg)
    return MultiVec._raw(pi.ctx, deg,
                         _bilinear(alpha.comps, pi.comps, _contract_idx, pi.ctx))


# ---------------------------------------------------------------------
# derivatives and brackets


def deRham(a: Form) -> Form:
    deg = a.degree + 1
    if deg > a.ctx.dim:
        return Form.zero(a.ctx, deg)
    A, den = _scaled(a.comps)
    acc: dict = {}
    for idx, terms in A:
        for i in a.ctx.axes():
            if i not in idx and (dc := _d(terms, i)):
                sign, merged = _wedge_idx((i,), idx)
                num = acc.setdefault(merged, {})
                for e, n in dc:
                    num[e] = num.get(e, 0) + sign * n
    return Form._raw(a.ctx, deg, _comps(a.ctx, acc, den))


def poincare_primitive(a: Form) -> Form:
    """A primitive of a closed polynomial form of degree >= 1.

    Homotopy operator for the radial contraction: a homogeneous term of
    polynomial degree d and form degree k maps to iota_E / (d + k) with
    E the Euler field; d(kappa a) = a whenever da = 0.
    """
    if a.degree < 1:
        raise ValueError("primitives exist for forms of degree >= 1")
    E = VField(a.ctx, {i: Poly.variable(a.ctx, i) for i in a.ctx.axes()})
    out = Form.zero(a.ctx, a.degree - 1)
    for idx, poly in a.comps.items():
        for e, c in poly.terms.items():
            piece = Form(a.ctx, a.degree, {idx: Poly(a.ctx, {e: c})})
            out = out + Fraction(1, sum(e) + a.degree) * contract(E, piece)
    return out


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


def lie_bracket(X: VField, Y: VField) -> VField:
    """[X, Y]_j = X_i d_i Y_j - Y_i d_i X_j."""
    _check(X, Y, MultiVec, MultiVec)
    XS, dx = _scaled(X.comps)
    YS, dy = _scaled(Y.comps)
    acc: dict = {}
    for P, Q, sign in ((XS, YS, 1), (YS, XS, -1)):
        for (i,), fp in P:
            for j, gq in Q:
                if dg := _d(gq, i):
                    _mul_into(acc.setdefault(j, {}), sign, fp, dg)
    return VField._raw(X.ctx, 1, _comps(X.ctx, acc, dx * dy))


def schouten(P: MultiVec, Q: MultiVec) -> MultiVec:
    """Schouten bracket of multivector fields of degree >= 1.

    Expanded componentwise through the decomposable formula
    [X1^...^Xp, Y1^...^Yq] =
        sum_{i,j} (-1)^{i+j} [Xi,Yj] ^ X1..^hat Xi..^Xp ^ Y1..^hat Yj..^Yq,
    attaching the polynomial coefficient of each component to its first
    wedge factor.  Reduces to the Lie bracket on vector fields.
    """
    _check(P, Q, MultiVec, MultiVec)
    p, q = P.degree, Q.degree
    if p < 1 or q < 1:
        raise ValueError("schouten is implemented for degrees >= 1")
    ctx = P.ctx
    out = MultiVec.zero(ctx, p + q - 1)
    for K, f in P.comps.items():
        xs = [VField(ctx, {K[0]: f})] + [VField.basis(ctx, k) for k in K[1:]]
        for M, g in Q.comps.items():
            ys = [VField(ctx, {M[0]: g})] + [VField.basis(ctx, m) for m in M[1:]]
            for i in range(p):
                for j in range(q):
                    br = lie_bracket(xs[i], ys[j])
                    if br.is_zero():
                        continue
                    rest = br
                    for t, v in enumerate(xs):
                        if t != i:
                            rest = wedge(rest, v)
                    for t, v in enumerate(ys):
                        if t != j:
                            rest = wedge(rest, v)
                    sgn = -1 if (i + j) % 2 else 1
                    out = out + sgn * rest
    return out
