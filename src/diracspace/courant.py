"""The higher split-Courant structure on E^p = TM + /\\^p T*M.

Pairing, Dorfman and Courant brackets with optional H-twist, gauge
transformations and the lambda-scaling, together with the tiered pairing
and bracket on P_r = /\\^r TM + /\\^{p+1-r} T*M.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import (
    Form,
    MultiVec,
    VField,
    contract,
    contract_sum,
    deRham,
    lie_bracket,
    lie_derivative,
    schouten,
)
from .poly import Context, Poly, _as_rat


class SectionEp:
    """A section X + alpha of E^p."""

    __slots__ = ("p", "X", "alpha")

    def __init__(self, p: int, X: VField, alpha: Form):
        alpha = alpha.as_degree(p, "form part")
        if X.ctx != alpha.ctx:
            raise ValueError("context mismatch")
        self.p = p
        self.X = X
        self.alpha = alpha

    @property
    def ctx(self) -> Context:
        return self.X.ctx

    @staticmethod
    def zero(ctx: Context, p: int) -> "SectionEp":
        return SectionEp(p, VField.zero(ctx), Form.zero(ctx, p))

    def is_zero(self) -> bool:
        return self.X.is_zero() and self.alpha.is_zero()

    def _check(self, other: "SectionEp"):
        if self.p != other.p or self.ctx != other.ctx:
            raise ValueError("section context/order mismatch")

    def __add__(self, other: "SectionEp") -> "SectionEp":
        self._check(other)
        return SectionEp(self.p, self.X + other.X, self.alpha + other.alpha)

    def __neg__(self) -> "SectionEp":
        return SectionEp(self.p, -self.X, -self.alpha)

    def __sub__(self, other: "SectionEp") -> "SectionEp":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return SectionEp(self.p, self.X * other, self.alpha * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SectionEp)
            and self.p == other.p
            and self.X == other.X
            and self.alpha == other.alpha
        )

    def __hash__(self):
        return hash((self.p, self.X, self.alpha))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if not self.X.is_zero():
            parts.append(str(self.X))
        if not self.alpha.is_zero():
            parts.append(str(self.alpha))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SectionEp({self})"


def pairing(e1: SectionEp, e2: SectionEp) -> Form:
    """<X+alpha, Y+beta> = iota_X beta + iota_Y alpha, a (p-1)-form."""
    e1._check(e2)
    return contract_sum(e1.ctx, e1.p - 1,
                        [(1, e1.X, e2.alpha), (1, e2.X, e1.alpha)])


def dorfman(e1: SectionEp, e2: SectionEp, H: Form | None = None) -> SectionEp:
    """[[X+alpha, Y+beta]] = [X,Y] + L_X beta - iota_Y d alpha (+ iota_Y iota_X H)."""
    e1._check(e2)
    form = lie_derivative(e1.X, e2.alpha) - contract(e2.X, deRham(e1.alpha))
    if H is not None:
        H = H.as_degree(e1.p + 2, "twist")
        form = form + contract(e2.X, contract(e1.X, H))
    return SectionEp(e1.p, lie_bracket(e1.X, e2.X), form)


def courant(e1: SectionEp, e2: SectionEp, H: Form | None = None) -> SectionEp:
    """Antisymmetric part: dorfman minus half the differential of the pairing."""
    br = dorfman(e1, e2, H)
    return SectionEp(e1.p, br.X,
                     br.alpha - deRham(pairing(e1, e2)) * Fraction(1, 2))


def gauge(e: SectionEp, B: Form) -> SectionEp:
    """Gauge transformation e^B: X+alpha -> X+alpha+iota_X B; its inverse
    e^{-B} is gauge(e, -B)."""
    B = B.as_degree(e.p + 1, "gauge form")
    return SectionEp(e.p, e.X, e.alpha + contract(e.X, B))


def scale(e: SectionEp, lam) -> SectionEp:
    """m_lambda: X + eta -> X + lambda*eta; an automorphism of Dorfman."""
    lam = _as_rat(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return SectionEp(e.p, e.X, e.alpha * lam)


# ---------------------------------------------------------------------
# Multi-Dirac tiers: P_r = /\^r TM + /\^{p+1-r} T*M


class SectionPr:
    """A tier element (Y, eta) with Y of degree r and eta of degree p+1-r."""

    __slots__ = ("p", "r", "Y", "eta")

    def __init__(self, p: int, r: int, Y: MultiVec, eta: Form):
        if not 1 <= r <= p:
            raise ValueError(f"tier {r} out of range 1..{p}")
        self.p = p
        self.r = r
        self.Y = Y.as_degree(r, "multivector part")
        self.eta = eta.as_degree(p + 1 - r, "form part")

    @property
    def ctx(self) -> Context:
        return self.Y.ctx

    @staticmethod
    def from_section(e: SectionEp) -> "SectionPr":
        return SectionPr(e.p, 1, e.X, e.alpha)

    def to_section(self) -> SectionEp:
        if self.r != 1:
            raise ValueError("only tier 1 converts to a section of E^p")
        return SectionEp(self.p, self.Y.to_vfield(), self.eta)

    def is_zero(self) -> bool:
        return self.Y.is_zero() and self.eta.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SectionPr)
            and (self.p, self.r) == (other.p, other.r)
            and self.Y == other.Y
            and self.eta == other.eta
        )

    def __hash__(self):
        return hash((self.p, self.r, self.Y, self.eta))

    def __str__(self) -> str:
        return f"({self.Y}, {self.eta})"

    def __repr__(self) -> str:
        return f"SectionPr({self})"


def multi_pairing(a: SectionPr, b: SectionPr) -> Form:
    """<<(Y,eta),(Yb,etab)>> = (iota_Yb eta - (-1)^{rs} iota_Y etab)/2."""
    if a.p != b.p or a.ctx != b.ctx:
        raise ValueError("tier element mismatch")
    r, s = a.r, b.r
    if r + s > a.p + 1:
        raise ValueError("tier overflow: r + s > p + 1")
    sgn = -1 if (r * s) % 2 else 1
    return contract_sum(a.ctx, a.p + 1 - r - s,
                        [(1, b.Y, a.eta), (-sgn, a.Y, b.eta)], div=2)


def mv_lie_derivative(Y: MultiVec, eta: Form) -> Form:
    """Multivector Lie derivative L_Y = iota_Y d + (-1)^{r+1} d iota_Y,
    the graded commutator [iota_Y, d] for Y of degree r.

    For r = 1 this is the Cartan formula.  Contraction takes the first
    wedge factor first, iota_{P^Z} = iota_Z iota_P for a vector field Z,
    so L_{P^Z} = iota_Z L_P + (-1)^q L_Z iota_P for P of degree q; at
    q = 1 the right side is Cartan's alone, and that pins the sign of the
    d iota_Y term in even degree.  The tier bracket's conormal property
    L_Y(f alpha) = iota_Y(df ^ alpha), for closed alpha with
    iota_Y alpha = 0, does not: there iota_Y(f alpha) = f iota_Y alpha
    = 0, so the d iota_Y term vanishes for either sign.
    """
    sgn = 1 if Y.degree % 2 else -1
    return contract(Y, deRham(eta)) + sgn * deRham(contract(Y, eta))


def multi_bracket(a: SectionPr, b: SectionPr) -> SectionPr:
    """Tier bracket [[(Y,eta),(Yb,etab)]]_{r,s}, landing in tier r+s-1.

    [[.,.]]_{r,s} = ( (-1)^{(r-1)(s-1)} [Y,Yb],
        L_Y etab - L_Yb eta - (-1)^s/2 d(iota_Yb eta + (-1)^{rs} iota_Y etab) ).

    The signs are pinned empirically by three requirements: tier (1,1)
    reproduces the Courant bracket on arbitrary sections, and graphs of a
    (p+1)-form over an involutive distribution satisfy
    [[Y+i_Y w, Yb+i_Yb w]] = ((-1)^{(r-1)(s-1)}[Y,Yb], i_[Y,Yb] w + (-1)^s i_Y i_Yb dw)
    and [[Y+i_Y w, f*alpha]] = (0, i_Y(df^alpha)) for closed conormal alpha.
    """
    if a.p != b.p or a.ctx != b.ctx:
        raise ValueError("tier element mismatch")
    p, r, s = a.p, a.r, b.r
    if r + s - 1 > p:
        raise ValueError("tier overflow: r + s - 1 > p")
    sgn_rs = -1 if (r * s) % 2 else 1
    sgn_cross = -1 if ((r - 1) * (s - 1)) % 2 else 1
    sgn_s = -1 if s % 2 else 1
    form = (
        mv_lie_derivative(a.Y, b.eta)
        - mv_lie_derivative(b.Y, a.eta)
        + deRham(contract_sum(a.ctx, p + 1 - r - s,
                              [(-sgn_s, b.Y, a.eta),
                               (-sgn_s * sgn_rs, a.Y, b.eta)], div=2))
    )
    return SectionPr(p, r + s - 1, sgn_cross * schouten(a.Y, b.Y), form)
