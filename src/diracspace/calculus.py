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

    def _like(self, degree: int, comps: dict):
        """A value of this type from a component map, whatever the
        subclass's constructor takes."""
        out = object.__new__(type(self))
        _Graded.__init__(out, self.ctx, degree, comps)
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
            comps[idx] = comps.get(idx, Poly.zero(self.ctx)) + c
        return self._like(self.degree, comps)

    def __neg__(self):
        return self._like(self.degree, {i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ctx, other)
        if isinstance(other, Poly):
            return self._like(
                self.degree, {i: c * other for i, c in self.comps.items()})
        return NotImplemented

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
        return self.comps.get((), Poly.zero(self.ctx))

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
        return self.comps.get((i,), Poly.zero(self.ctx))

    def to_multivec(self) -> MultiVec:
        return MultiVec(self.ctx, 1, self.comps)

    def __call__(self, f: Poly) -> Poly:
        """Directional derivative X(f)."""
        out = Poly.zero(self.ctx)
        for (i,), c in self.comps.items():
            out = out + c * f.partial(i)
        return out


# ---------------------------------------------------------------------
# wedge products


def wedge(a: Form | MultiVec, b: Form | MultiVec) -> Form | MultiVec:
    """Wedge product of two forms or of two multivectors."""
    kind = _kind(a)
    _check(a, b, kind, kind)
    deg = a.degree + b.degree
    if deg > a.ctx.dim:
        return kind.zero(a.ctx, deg)
    out: dict = {}
    for I, f in a.comps.items():
        for J, g in b.comps.items():
            sign, idx = _sort_sign(I + J)
            if sign == 0:
                continue
            out[idx] = out.get(idx, Poly.zero(a.ctx)) + sign * (f * g)
    return kind(a.ctx, deg, out)


# ---------------------------------------------------------------------
# contraction


def _contract_axis(comps: dict, i: int) -> dict:
    """Contract a single basis covector/vector index i into a component map."""
    out: dict = {}
    for idx, c in comps.items():
        if i not in idx:
            continue
        t = idx.index(i)
        rest = idx[:t] + idx[t + 1:]
        sign = -1 if t % 2 else 1
        prev = out.get(rest)
        out[rest] = sign * c if prev is None else prev + sign * c
    return out


def _contract_into(outer: dict, inner: dict, ctx: Context) -> dict:
    """Sum over the outer components of the coefficient times the inner
    component map with the outer basis axes contracted in order."""
    out: dict = {}
    for K, c in outer.items():
        comps = inner
        for i in K:
            comps = _contract_axis(comps, i)
        for idx, g in comps.items():
            out[idx] = out.get(idx, Poly.zero(ctx)) + c * g
    return out


def contract(Y: MultiVec, a: Form) -> Form:
    """Interior product iota_Y a for Y a multivector (a VField included).

    Decomposable multivectors contract first-factor-first; the convention
    test iota_{D1^D2}(dx1^dx2^dx3) = dx3 pins the sign.
    """
    _check(Y, a, MultiVec, Form)
    deg = a.degree - Y.degree
    if deg < 0:
        return Form.zero(a.ctx, deg)
    return Form(a.ctx, deg, _contract_into(Y.comps, a.comps, a.ctx))


def iota_form(alpha: Form, pi: MultiVec) -> MultiVec:
    """Contraction of a form into a multivector, form factors against the
    first slots of pi in order; for a bivector iota_alpha pi = pi(alpha, .)."""
    _check(alpha, pi, Form, MultiVec)
    deg = pi.degree - alpha.degree
    if deg < 0:
        return MultiVec.zero(pi.ctx, deg)
    return MultiVec(pi.ctx, deg, _contract_into(alpha.comps, pi.comps, pi.ctx))


# ---------------------------------------------------------------------
# derivatives and brackets


def deRham(a: Form) -> Form:
    deg = a.degree + 1
    if deg > a.ctx.dim:
        return Form.zero(a.ctx, deg)
    out: dict = {}
    for idx, c in a.comps.items():
        for i in a.ctx.axes():
            dc = c.partial(i)
            if dc.is_zero():
                continue
            sign, merged = _sort_sign((i,) + idx)
            if sign == 0:
                continue
            out[merged] = out.get(merged, Poly.zero(a.ctx)) + sign * dc
    return Form(a.ctx, deg, out)


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
    comps: dict = {}
    for j in X.ctx.axes():
        c = X(Y.component(j)) - Y(X.component(j))
        if not c.is_zero():
            comps[j] = c
    return VField(X.ctx, comps)


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
