"""Pointwise linear algebra of Lagrangian subspaces of T + /\\^p T*.

Everything here is constant-coefficient: subspaces of the fiber
T + /\\^p T* over a single point, encoded as rational coordinate vectors
(the n T-coordinates first, then the C(n,p) form coordinates in
increasing-tuple order).  Provides perps, the (S, Omega) bijection, the
extension of a partial form to an honest alternating form, the normal
presentation of a Lagrangian by (S, omega), the tier subspaces of the
associated multi-Dirac family, and the weak-isotropy/maximality tests
that distinguish this notion from Nambu-Dirac structures.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .calculus import (Form, MultiVec, VField, const, contract, coords,
                       wedge)
from .courant import SectionPr, multi_pairing
from .linalg import kernel_basis, solve, span_basis, span_equal
from .poly import Context, _as_rat


def _tuples(n: int, k: int):
    return list(itertools.combinations(range(1, n + 1), k))


# -- constant-coefficient helpers -------------------------------------


def const_vfield(ctx: Context, vec) -> VField:
    return const(VField, ctx, 1, vec)


def form_eval(a: Form, vecs) -> Fraction:
    """Evaluate a constant k-form on k coordinate vectors."""
    out = a
    for v in vecs:
        out = contract(const_vfield(a.ctx, v), out)
    return coords(out.as_degree(0, "the evaluated form"))[0]


def wedges(cls, ctx: Context, rows, k: int) -> list:
    """All k-fold wedges of the constant degree-1 ``cls`` of the rows."""
    ones = [const(cls, ctx, 1, row) for row in rows]
    out = []
    for combo in itertools.combinations(ones, k):
        w = const(cls, ctx, 0, [1])
        for f in combo:
            w = wedge(w, f)
        out.append(w)
    return out


# -- subspaces ---------------------------------------------------------


class LinSubspace:
    """A subspace of /\\^r T + /\\^{p+1-r} T* at a point (tier r; r=1 by
    default, giving the ambient T + /\\^p T* of order p).

    Coordinates: the C(n,r) multivector components in increasing-tuple
    order, then the C(n, p+1-r) form components likewise.  The basis is
    kept in reduced echelon form, so equality is literal.
    """

    __slots__ = ("n", "p", "r", "basis")

    def __init__(self, n: int, p: int, basis, r: int = 1):
        if not 1 <= r <= p <= n:
            raise ValueError(f"need 1 <= r <= p <= n, got r={r}, p={p}, n={n}")
        self.n, self.p, self.r = n, p, r
        amb = self.ambient_dim()
        rows = [[_as_rat(x) for x in row] for row in basis]
        for row in rows:
            if len(row) != amb:
                raise ValueError(f"vector length {len(row)}, ambient {amb}")
        self.basis = span_basis(rows)

    @property
    def ctx(self) -> Context:
        return Context(self.n)

    def ambient_dim(self) -> int:
        return comb(self.n, self.r) + comb(self.n, self.p + 1 - self.r)

    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinSubspace)
            and (self.n, self.p, self.r) == (other.n, other.p, other.r)
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, self.p, self.r,
                     tuple(tuple(row) for row in self.basis)))

    def members(self):
        """Basis as (MultiVec, Form) pairs."""
        ctx = self.ctx
        nm = comb(self.n, self.r)
        out = []
        for row in self.basis:
            out.append((const(MultiVec, ctx, self.r, row[:nm]),
                        const(Form, ctx, self.p + 1 - self.r, row[nm:])))
        return out

    @staticmethod
    def from_elements(n: int, p: int, elems, r: int = 1) -> "LinSubspace":
        """Span of (MultiVec, Form) pairs in tier-r coordinates."""
        rows = [coords(Y) + coords(eta) for Y, eta in elems]
        return LinSubspace(n, p, rows, r)

    # The basis is in echelon form with the multivector block first, so the
    # rows that pivot there come first, and the rest are zero on that block.

    def tangent_part(self):
        """Canonical basis of the projection onto the multivector factor."""
        nm = comb(self.n, self.r)
        return [row[:nm] for row in self.basis if any(row[:nm])]

    def form_intersection(self):
        """Canonical basis of L intersected with the form factor."""
        nm = comb(self.n, self.r)
        return [row[nm:] for row in self.basis if not any(row[:nm])]

    def __repr__(self):
        return (f"LinSubspace(n={self.n}, p={self.p}, r={self.r}, "
                f"dim={self.dim()})")


def _unit_elements(n: int, p: int, r: int):
    """Unit coordinate elements of /\\^r T + /\\^{p+1-r} T*."""
    ctx = Context(n)
    out = []
    for idx in _tuples(n, r):
        out.append((MultiVec.basis(ctx, idx), Form.zero(ctx, p + 1 - r)))
    for idx in _tuples(n, p + 1 - r):
        out.append((MultiVec.zero(ctx, r), Form.basis(ctx, idx)))
    return out


def perp_tier(L: LinSubspace, r: int) -> LinSubspace:
    """(L)^{perp,r}: all tier-r elements pairing to zero with L."""
    n, p, s = L.n, L.p, L.r
    if r + s > p + 1:
        raise ValueError("tier overflow: r + s > p + 1")
    units = _unit_elements(n, p, r)
    mem = [SectionPr(p, s, Y, eta) for Y, eta in L.members()]
    cols = [[c for b in mem for c in coords(multi_pairing(
        SectionPr(p, r, Y, eta), b))] for Y, eta in units]
    return LinSubspace(n, p, kernel_basis(
        [list(row) for row in zip(*cols)], len(units)), r)


def perp(L: LinSubspace) -> LinSubspace:
    """L^perp inside T + /\\^p T* for the symmetric pairing
    <X+alpha, Y+beta> = iota_X beta + iota_Y alpha."""
    if L.r != 1:
        raise ValueError("perp acts on tier-1 subspaces")
    return perp_tier(L, 1)


def annihilator(n: int, rows) -> list[list[Fraction]]:
    """Covectors vanishing on the span of the given vectors."""
    return kernel_basis([list(r) for r in rows], n)


def classify(L: LinSubspace) -> dict:
    """Isotropy and two independent Lagrangian tests.

    `lagrangian` is perp(L) == L; `easychar` is the three-condition
    characterization (isotropic, form intersection equal to /\\^p S°,
    and dim S <= n-p or S = T); the two always agree.
    """
    if L.r != 1:
        raise ValueError("classify acts on tier-1 subspaces")
    n, p = L.n, L.p
    ctx = L.ctx
    mem = [SectionPr(p, 1, Y, eta) for Y, eta in L.members()]
    iso = all(multi_pairing(a, b).is_zero() for a in mem for b in mem)
    lag = perp(L) == L
    S = L.tangent_part()
    so = annihilator(n, S)
    wp_so = span_basis([coords(f) for f in wedges(Form, ctx, so, p)])
    easy = (
        iso
        and L.form_intersection() == wp_so
        and (len(S) <= n - p or len(S) == n)
    )
    return {"isotropic": iso, "lagrangian": lag, "easychar": easy}


# -- the (S, Omega) correspondence ------------------------------------


class LagrangianPair:
    """(S, Omega): a subspace S of T and a 2-S-slot, (p-1)-T-slot tensor.

    S is kept as a canonical echelon basis; Omega maps basis index pairs
    (i, j) with i < j to constant (p-1)-forms, skew by convention in the
    two S slots.
    """

    __slots__ = ("n", "p", "S", "Omega")

    def __init__(self, n: int, p: int, S, Omega: dict):
        self.n, self.p = n, p
        self.S = span_basis([[_as_rat(x) for x in row] for row in S])
        k = len(self.S)
        clean = {}
        for (i, j), f in Omega.items():
            if not 0 <= i < j < k:
                raise ValueError(f"bad basis pair ({i},{j}) for dim S = {k}")
            if not f.as_degree(p - 1, "an Omega value").is_zero():
                clean[(i, j)] = f
        self.Omega = clean

    @property
    def ctx(self) -> Context:
        return Context(self.n)

    def omega_at(self, i: int, j: int) -> Form:
        """Omega(s_i, s_j) for any index order (skew)."""
        ctx = self.ctx
        if i == j:
            return Form.zero(ctx, self.p - 1)
        if i < j:
            return self.Omega.get((i, j), Form.zero(ctx, self.p - 1))
        return -self.Omega.get((j, i), Form.zero(ctx, self.p - 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LagrangianPair)
            and (self.n, self.p) == (other.n, other.p)
            and self.S == other.S
            and all(self.omega_at(i, j) == other.omega_at(i, j)
                    for i in range(len(self.S))
                    for j in range(i + 1, len(self.S)))
        )

    def __repr__(self):
        return f"LagrangianPair(n={self.n}, p={self.p}, dim S={len(self.S)})"


def _tangent_rows(L: LinSubspace):
    """S and the alpha_i with s_i + alpha_i in L: the echelon rows of L
    that pivot in T.  Refuses an L that is not Lagrangian."""
    if perp(L) != L:
        raise ValueError("input subspace is not Lagrangian")
    S = L.tangent_part()
    return S, [const(Form, L.ctx, L.p, row[L.n:]) for row in L.basis[:len(S)]]


def to_pair(L: LinSubspace) -> LagrangianPair:
    """Extract (S, Omega): S is the tangent projection, and
    Omega(s_i, s_j) = iota_{s_j} alpha_i for any s_i + alpha_i in L."""
    S, alphas = _tangent_rows(L)
    return LagrangianPair(L.n, L.p, S, {
        (i, j): contract(const_vfield(L.ctx, S[j]), alphas[i])
        for i, j in itertools.combinations(range(len(S)), 2)})


def _contraction_rows(n: int, q: int, S) -> list[list[Fraction]]:
    """Matrix of a -> (iota_s a for s in S) on constant q-forms: one
    column per unit q-form, one row per s and (q-1)-tuple."""
    ctx = Context(n)
    units = [Form.basis(ctx, idx) for idx in _tuples(n, q)]
    rows = []
    for s in S:
        X = const_vfield(ctx, s)
        cols = [coords(contract(X, u)) for u in units]
        rows.extend([col[t] for col in cols] for t in range(comb(n, q - 1)))
    return rows


def _omega_extension_to_p_forms(pair: LagrangianPair):
    """Solve for beta_i in /\\^p T* with iota_{s_j} beta_i = Omega(s_i, s_j)
    for all i, j (including the diagonal zero); None if not extendable.

    The system is block-diagonal in i, with the same block for every i:
    the rows of iota_{s_j} on unit p-forms, stacked over j.
    """
    n, p = pair.n, pair.p
    k = len(pair.S)
    rows = _contraction_rows(n, p, pair.S)
    betas = []
    for i in range(k):
        rhs = [c for j in range(k) for c in coords(pair.omega_at(i, j))]
        sol = solve(rows, rhs)
        if sol is None:
            return None
        betas.append(const(Form, pair.ctx, p, sol))
    return betas


def extend_to_form(n: int, p: int, S, betas) -> Form:
    """Extend beta in S* (x) /\\^p T* to an alternating (p+1)-form.

    `betas[i]` is the p-form beta(s_i) for the i-th vector of the echelon
    basis of S.  The result is the unique omega with iota_{s_i} omega =
    beta_i for all i that vanishes on every (p+1)-tuple from the
    complement C = annihilator(n, S) of S, found by one exact solve.  (It
    is the skew-symmetrization of the tensor sum of X*_i (x) beta_i in a
    frame adapted to S + C, with its S-weight-q part reweighted by
    (p+1)/q.)  Raises ValueError when the beta_i are not the contractions
    of one (p+1)-form.
    """
    ctx = Context(n)
    S = span_basis([[_as_rat(x) for x in row] for row in S])
    if len(S) != len(betas):
        raise ValueError("one beta per S basis vector required")
    rhs = [c for b in betas for c in coords(b.as_degree(p, "a beta value"))]
    rows = _contraction_rows(n, p + 1, S)
    units = [Form.basis(ctx, idx) for idx in _tuples(n, p + 1)]
    for vecs in itertools.combinations(annihilator(n, S), p + 1):
        rows.append([form_eval(u, vecs) for u in units])
        rhs.append(Fraction(0))
    sol = solve(rows, rhs) if rows else []
    if sol is None:
        raise ValueError("extension failed to restrict to beta")
    return const(Form, ctx, p + 1, sol)


def _normal_tier(n: int, p: int, S, alphas, r: int) -> LinSubspace:
    """D_r = span{(s_i ^ K, iota_K alpha_i)} + /\\^{p+1-r} S°, with K over
    the unit (r-1)-vectors (at r = 1 the element is (s_i, alpha_i)), for
    a canonical basis S of the tangent part of a Lagrangian L and any
    p-forms alpha_i with s_i + alpha_i in L.

    Any such alpha_i will do: for omega presenting L, alpha_i =
    iota_{s_i} omega + xi_i with xi_i in /\\^p S°.  Contraction takes the
    first wedge factor first, so iota_{s_i ^ K} omega = iota_K iota_{s_i}
    omega differs from iota_K alpha_i by iota_K xi_i, which lies in
    /\\^{p+1-r} S° and so already in D_r.
    """
    ctx = Context(n)
    elems = []
    for s, alpha in zip(S, alphas):
        sv = const_vfield(ctx, s)
        for K in _tuples(n, r - 1):
            eK = MultiVec.basis(ctx, K)
            elems.append((wedge(sv, eK), contract(eK, alpha)))
    for xi in wedges(Form, ctx, annihilator(n, S), p + 1 - r):
        elems.append((MultiVec.zero(ctx, r), xi))
    return LinSubspace.from_elements(n, p, elems, r)


def norom_subspace(n: int, p: int, S, omega: Form) -> LinSubspace:
    """L = {X + iota_X omega + alpha : X in S, alpha in /\\^p S°}; a zero
    omega of any degree is the zero (p+1)-form, giving S + /\\^p S°."""
    ctx = Context(n)
    omega = omega.as_degree(p + 1, "omega")
    S = span_basis([[_as_rat(x) for x in row] for row in S])
    k = len(S)
    if not (k <= n - p or k == n):
        raise ValueError(f"dim S = {k} violates dim S <= {n - p} or S = T")
    alphas = [contract(const_vfield(ctx, s), omega) for s in S]
    return _normal_tier(n, p, S, alphas, 1)


def from_pair(pair: LagrangianPair) -> LinSubspace:
    """Inverse of to_pair: L = span{s_i + beta_i} + /\\^p S°, with the
    beta_i of `_omega_extension_to_p_forms`.  Since iota_{s_j} beta_i =
    Omega(s_i, s_j), each s_i + beta_i lies in L, and a (p+1)-form with
    these contractions exists as soon as the beta_i do."""
    n, p = pair.n, pair.p
    k = len(pair.S)
    if not (k <= n - p or k == n):
        raise ValueError(f"dim S = {k} violates dim S <= {n - p} or S = T")
    betas = _omega_extension_to_p_forms(pair)
    if betas is None:
        raise ValueError("Omega is not the restriction of a full form")
    return _normal_tier(n, p, pair.S, betas, 1)


# -- multi-Dirac tiers and the Nambu-type conditions -------------------


def multidirac_tier(L: LinSubspace, r: int) -> LinSubspace:
    """Tier-r subspace D_r of the multi-Dirac family determined by the
    Lagrangian L, read off L's echelon rows s_i + alpha_i that pivot in T:
    D_r = span{(s_i ^ K, iota_K alpha_i)} + /\\^{p+1-r} S° (see
    `_normal_tier`), with no (p+1)-form omega built.

    It equals the brute-force perp (L)^{perp,r}; acceptance criterion 6,
    `tests/test_lagrangian.py::test_tier_duality`, the
    `multidirac-tiers` CLI report and the benchmark compare the two.
    """
    if L.r != 1:
        raise ValueError("multidirac_tier starts from a tier-1 subspace")
    if not 1 <= r <= L.p:
        raise ValueError(f"tier {r} out of range 1..{L.p}")
    S, alphas = _tangent_rows(L)
    return _normal_tier(L.n, L.p, S, alphas, r)


def nambu_dirac_check(L: LinSubspace) -> dict:
    """The two linear conditions singling out Nambu-Dirac subspaces:
    `iso_weak` — the pairing vanishes on (p-1)-tuples from S;
    `hismax` — /\\^p S equals the multivector projection of L^{perp,p}."""
    if L.r != 1:
        raise ValueError("nambu_dirac_check acts on tier-1 subspaces")
    n, p = L.n, L.p
    ctx = L.ctx
    mem = L.members()
    S = L.tangent_part()
    iso_weak = True
    # the r = s = 1 pairing is symmetric, so unordered pairs suffice
    for a, b in itertools.combinations_with_replacement(mem, 2):
        pr = multi_pairing(SectionPr(p, 1, *a), SectionPr(p, 1, *b))
        for combo in itertools.combinations(S, p - 1):
            if form_eval(pr, list(combo)) != 0:
                iso_weak = False
    wp_s = span_basis([coords(Y) for Y in wedges(MultiVec, ctx, S, p)])
    proj = perp_tier(L, p).tangent_part()
    return {"iso_weak": iso_weak, "hismax": span_equal(wp_s, proj)}


def random_lagrangian(rng, n: int, p: int) -> LinSubspace:
    """Seeded random Lagrangian subspace via its normal presentation."""
    ctx = Context(n)
    dims = list(range(0, n - p + 1)) + [n]
    k = rng.choice(dims)
    S = span_basis([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(k)])
    while len(S) < k:
        S = span_basis(S + [[Fraction(rng.randint(-3, 3))
                             for _ in range(n)]])
    omega = const(Form, ctx, p + 1,
                  [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
                   for _ in range(comb(n, p + 1))])
    return norom_subspace(n, p, S, omega)
