"""Finitely presented candidate Dirac structures of higher order.

Presentation kinds over a polynomial coordinate patch: graphs of a
(p+1)-multivector, regular presentations over a coordinate-spanned
distribution S with a (p+1)-form omega (the graph of omega,
X - iota_X omega, is the one with S = TM), and scaled graphs of a top
form (f X - iota_X Omega).  Each knows its generating family of
sections, a membership decision procedure, and exact isotropy /
involutivity verification with witnesses.  On top of these sit
Hamiltonian forms and their bracket {alpha, beta} = iota_{X_alpha} d beta,
with one solver for the Hamiltonian vector field on every constant
regular presentation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .calculus import Form, MultiVec, VField, contract, deRham, iota_form
from .courant import SectionEp, dorfman, pairing
from .linalg import solve_many
from .poly import Context, Poly


def _verdict(check: str, witnesses: list[str]) -> dict:
    """A check report: it passes when there are no witnesses."""
    return {"check": check, "status": "pass" if not witnesses else "fail",
            "witnesses": witnesses}


class Presentation:
    """Base: a finitely presented subbundle of T + /\\^p T*."""

    def __init__(self, n: int, p: int):
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
        self.n, self.p = n, p
        self.ctx = Context(n)

    def generators(self) -> list[SectionEp]:
        raise NotImplementedError

    def member(self, e: SectionEp) -> bool:
        raise NotImplementedError

    def _check(self, e: SectionEp):
        if e.ctx != self.ctx or e.p != self.p:
            raise ValueError("section context/order mismatch")

    def verify_isotropic(self) -> dict:
        """Pair every two generators; witnesses are the nonzero pairings."""
        gens = self.generators()
        witnesses = []
        for i, a in enumerate(gens):
            for b in gens[i:]:
                pr = pairing(a, b)
                if not pr.is_zero():
                    witnesses.append(f"<{a}, {b}> = {pr}")
        return _verdict("isotropic", witnesses)

    def verify_involutive(self) -> dict:
        """Default: close the generating family under the Dorfman bracket
        and test membership of every bracket."""
        gens = self.generators()
        witnesses = []
        for a in gens:
            for b in gens:
                br = dorfman(a, b)
                if not self.member(br):
                    witnesses.append(f"[[{a}, {b}]] = {br} is not a member")
        return _verdict("involutive", witnesses)


class GraphMultivector(Presentation):
    """graph(pi) = {iota_alpha pi + alpha}; isotropy requires the
    multivector degree p+1 to be 2 or n (or pi = 0)."""

    def __init__(self, n: int, p: int, pi: MultiVec):
        super().__init__(n, p)
        self.pi = pi.as_degree(p + 1, "pi")
        if not pi.is_zero() and p + 1 not in (2, n):
            raise ValueError(
                "multivector graphs require degree 2 or top degree")

    def generators(self) -> list[SectionEp]:
        out = []
        for idx in itertools.combinations(self.ctx.axes(), self.p):
            alpha = Form.basis(self.ctx, idx)
            X = iota_form(alpha, self.pi).to_vfield()
            out.append(SectionEp(self.p, X, alpha))
        return out

    def member(self, e: SectionEp) -> bool:
        self._check(e)
        return iota_form(e.alpha, self.pi) == e.X


class Regular(Presentation):
    """{X - iota_X omega + alpha : X in S, alpha in /\\^p S°} where S is
    spanned by the listed coordinate axes (apply any constant change of
    frame to the inputs beforehand).  Involutive iff the components of
    d omega with three or more S indices vanish."""

    def __init__(self, n: int, p: int, S, omega: Form):
        super().__init__(n, p)
        self.S = tuple(sorted(set(S)))
        if any(not 1 <= i <= n for i in self.S):
            raise ValueError("S must consist of coordinate axes")
        k = len(self.S)
        if not (k <= n - p or k == n):
            raise ValueError(f"dim S = {k} violates dim S <= {n - p} or S = T")
        self.omega = omega.as_degree(p + 1, "omega")
        rest = [i for i in self.ctx.axes() if i not in self.S]
        self.conormal = tuple(itertools.combinations(rest, p))

    def generators(self) -> list[SectionEp]:
        out = []
        for i in self.S:
            X = VField.basis(self.ctx, i)
            out.append(SectionEp(self.p, X, -contract(X, self.omega)))
        for idx in self.conormal:
            out.append(SectionEp(self.p, VField.zero(self.ctx),
                                 Form.basis(self.ctx, idx)))
        return out

    def member(self, e: SectionEp) -> bool:
        self._check(e)
        if any(not e.X.component(i).is_zero()
               for i in self.ctx.axes() if i not in self.S):
            return False
        xi = e.alpha + contract(e.X, self.omega)
        return all(idx in self.conormal for idx in xi.comps)

    def verify_involutive(self) -> dict:
        dw = deRham(self.omega)
        witnesses = []
        for idx, c in sorted(dw.comps.items()):
            if sum(1 for i in idx if i in self.S) >= 3:
                witnesses.append(
                    f"d omega component {c} on {idx} has >= 3 S indices")
        return _verdict("involutive", witnesses)


class GraphForm(Regular):
    """graph(omega) = {X - iota_X omega}: the regular presentation with
    S = TM, which has no conormal p-tuples.  Involutive iff d omega = 0;
    the override reports d omega itself as the witness."""

    def __init__(self, n: int, p: int, omega: Form):
        super().__init__(n, p, range(1, n + 1), omega)

    def verify_involutive(self) -> dict:
        dw = deRham(self.omega)
        witnesses = [] if dw.is_zero() else [f"d omega = {dw}"]
        return _verdict("involutive", witnesses)


class ScaledTop(Presentation):
    """{f X - iota_X Omega : X in TM} with Omega a top form; order n-1.
    Membership divides the vector part exactly by f."""

    def __init__(self, n: int, f: Poly, Omega: Form):
        super().__init__(n, n - 1)
        if f.is_zero():
            raise ValueError("scaling function must be nonzero")
        self.f = f
        self.Omega = Omega.as_degree(n, "Omega")

    def generators(self) -> list[SectionEp]:
        out = []
        for i in self.ctx.axes():
            X = VField.basis(self.ctx, i)
            out.append(SectionEp(self.p, self.f * X,
                                 -contract(X, self.Omega)))
        return out

    def member(self, e: SectionEp) -> bool:
        self._check(e)
        comps = {}
        for i in self.ctx.axes():
            q = e.X.component(i).divide_exact(self.f)
            if q is None:
                return False
            comps[i] = q
        W = VField(self.ctx, comps)
        return e.alpha == -contract(W, self.Omega)


# -- Hamiltonian forms -------------------------------------------------


class NotHamiltonian(ValueError):
    """A form that has no Hamiltonian vector field in the presentation."""


def hamiltonian_verify(P: Presentation, alpha: Form, X: VField) -> bool:
    """Is X a Hamiltonian vector field for alpha, i.e. X + d alpha in L?"""
    alpha = alpha.as_degree(P.p - 1, "alpha")
    return P.member(SectionEp(P.p, X, deRham(alpha)))


def hamiltonian_solve(P: Presentation, alpha: Form):
    """Solve for a Hamiltonian vector field of alpha, or None.

    Requires a Regular presentation (a GraphForm is the one with S = TM)
    with constant coefficients.  X ranges over S, and X + d alpha is a
    member exactly when iota_X omega + d alpha vanishes off the conormal
    p-tuples.  That splits into one rational linear system per monomial,
    all sharing the constant coefficient matrix of omega, so one
    reduction with a right-hand side per monomial solves them all.
    """
    if not isinstance(P, Regular):
        raise ValueError("solving requires a form-graph or regular "
                         "presentation; use hamiltonian_verify instead")
    if not P.omega.is_constant():
        raise ValueError("verification-only mode for non-constant "
                         "coefficients; supply the vector field")
    ctx = P.ctx
    alpha = alpha.as_degree(P.p - 1, "alpha")
    terms = (-deRham(alpha)).terms
    idxs = [idx for idx in itertools.combinations(ctx.axes(), P.p)
            if idx not in P.conormal]
    # constant matrix of X |-> iota_X omega on the constrained components
    const = (0,) * ctx.dim
    cols = []
    for j in P.S:
        ij = contract(VField.basis(ctx, j), P.omega).terms
        cols.append([ij.get((idx, const), Fraction(0)) for idx in idxs])
    rows = [[col[t] for col in cols] for t in range(len(idxs))]
    monomials = sorted({e for idx, e in terms if idx not in P.conormal})
    sols = solve_many(rows, [[terms.get((idx, e), Fraction(0))
                              for idx in idxs] for e in monomials])
    if sols is None:
        return None
    field: dict = {}
    for e, sol in zip(monomials, sols):
        for j, c in zip(P.S, sol):
            field.setdefault(j, {})[e] = c
    return VField(ctx, {j: Poly(ctx, t) for j, t in field.items()})


class HamiltonianDatum:
    """A Hamiltonian (p-1)-form together with a chosen vector field."""

    __slots__ = ("P", "alpha", "X")

    def __init__(self, P: Presentation, alpha: Form, X: VField):
        alpha = alpha.as_degree(P.p - 1, "alpha")
        if not hamiltonian_verify(P, alpha, X):
            raise ValueError("X + d alpha is not a member of the subbundle")
        self.P = P
        self.alpha = alpha
        self.X = X

    @classmethod
    def _raw(cls, P: Presentation, alpha: Form, X: VField):
        """Trusted constructor for sums and rational multiples of data:
        membership in L is linear, so they are members unchecked."""
        out = object.__new__(cls)
        out.P, out.alpha, out.X = P, alpha, X
        return out

    def is_zero(self) -> bool:
        return self.alpha.is_zero()

    def __add__(self, other: "HamiltonianDatum") -> "HamiltonianDatum":
        if self.P is not other.P:
            raise ValueError("data must share a presentation")
        return HamiltonianDatum._raw(self.P, self.alpha + other.alpha,
                                     self.X + other.X)

    def __neg__(self) -> "HamiltonianDatum":
        return HamiltonianDatum._raw(self.P, -self.alpha, -self.X)

    def __mul__(self, c):
        # only a constant multiple of a member is a member
        make = (HamiltonianDatum._raw if isinstance(c, (int, Fraction))
                else HamiltonianDatum)
        return make(self.P, self.alpha * c, self.X * c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        # equality in the observables complex: the form alone matters
        return (isinstance(other, HamiltonianDatum)
                and self.P is other.P and self.alpha == other.alpha)

    def __str__(self) -> str:
        return str(self.alpha)


def ham_bracket(a: HamiltonianDatum, b: HamiltonianDatum) -> Form:
    """{alpha, beta} = iota_{X_alpha} d beta, again Hamiltonian (with
    vector field [X_alpha, X_beta])."""
    if a.P is not b.P:
        raise ValueError("data must share a presentation")
    return contract(a.X, deRham(b.alpha))
