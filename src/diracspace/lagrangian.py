"""Pointwise linear algebra of Lagrangian subspaces of T + /\\^p T*.

Everything here is constant-coefficient: subspaces of the fiber
T + /\\^p T* over a single point, encoded as rational coordinate vectors
(the n T-coordinates first, then the C(n,p) form coordinates in
increasing-tuple order); a subspace is kept as its canonical integer
echelon rows (`linalg.echelon`), and is worked on in them.  Provides
perps, the (S, Omega) bijection, the extension of a partial form to an
honest alternating form, the normal presentation of a Lagrangian by
(S, omega), the tier subspaces of the associated multi-Dirac family, and
the weak-isotropy/maximality tests that distinguish this notion from
Nambu-Dirac structures.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

from .calculus import (Form, MultiVec, VField, _contract_idx, _wedge_idx,
                       const, contract, coords)
from .courant import SectionPr, multi_pairing
from .linalg import (distinct_lines, echelon, fraction_rows, int_kernel,
                     kernel_basis, solve, solve_many, span_basis, span_equal)
from .poly import Context, _as_rat


@lru_cache(maxsize=256)
def _tuples(n: int, k: int) -> tuple:
    """The increasing k-tuples of axes 1..n, in coordinate order."""
    return tuple(itertools.combinations(range(1, n + 1), k))


# -- constant-coefficient helpers -------------------------------------
#
# A constant form or multivector of degree k is a coordinate row, one
# entry per tuple of `_tuples(n, k)`.  Products take the sparse dict
# {index tuple: coefficient} of each factor and calculus's cached index
# rules, so no Form or MultiVec is built.


def _sparse(n: int, k: int, row) -> dict:
    return {I: x for I, x in zip(_tuples(n, k), row) if x}


def _dense(n: int, k: int, d: dict) -> list:
    return [d.get(I, 0) for I in _tuples(n, k)]


def _cprod(rule, a: dict, b: dict) -> dict:
    """Product of two sparse coordinate dicts under the index rule
    `_wedge_idx` (a ^ b) or `_contract_idx` (iota_a b)."""
    out = {}
    for I, x in a.items():
        for J, y in b.items():
            sgn, K = rule(I, J)
            if sgn:
                out[K] = out.get(K, 0) + sgn * x * y
    return out


def _iota(n: int, s, alpha, q: int) -> list:
    """Coordinates of iota_s alpha for a vector s and a q-form alpha."""
    return _dense(n, q - 1, _cprod(_contract_idx, _sparse(n, 1, s),
                                   _sparse(n, q, alpha)))


def _wedge_rows(n: int, rows, k: int) -> list[list]:
    """Coordinates of the k-fold wedges of the rows (vectors or
    covectors), one per k-combination in order.  The wedge of k vectors
    has their k x k minors as coordinates, and a k-form evaluates on
    them to the dot product with its own coordinates."""
    vecs = [_sparse(n, 1, row) for row in rows]
    out = []
    for combo in itertools.combinations(vecs, k):
        w = {(): 1}
        for v in combo:
            w = _cprod(_wedge_idx, w, v)
        out.append(_dense(n, k, w))
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def const_vfield(ctx: Context, vec) -> VField:
    return const(VField, ctx, 1, vec)


def form_eval(a: Form, vecs) -> Fraction:
    """Evaluate a constant k-form on k coordinate vectors."""
    out = a
    for v in vecs:
        out = contract(const_vfield(a.ctx, v), out)
    return coords(out.as_degree(0, "the evaluated form"))[0]


# -- subspaces ---------------------------------------------------------


class LinSubspace:
    """A subspace of /\\^r T + /\\^{p+1-r} T* at a point (tier r; r=1 by
    default, giving the ambient T + /\\^p T* of order p).

    Coordinates: the C(n,r) multivector components in increasing-tuple
    order, then the C(n, p+1-r) form components likewise.  The span is
    kept as its canonical integer echelon rows and their pivots
    (`linalg.echelon`), so equality is literal; `basis` is the reduced
    echelon basis over the rationals, in Fractions.
    """

    __slots__ = ("n", "p", "r", "rows", "pivots", "_members")

    def __init__(self, n: int, p: int, basis, r: int = 1):
        if not 1 <= r <= p <= n:
            raise ValueError(f"need 1 <= r <= p <= n, got r={r}, p={p}, n={n}")
        self.n, self.p, self.r = n, p, r
        amb = self.ambient_dim()
        basis = [list(row) for row in basis]
        for row in basis:
            if len(row) != amb:
                raise ValueError(f"vector length {len(row)}, ambient {amb}")
            for x in row:
                if type(x) is not int:
                    _as_rat(x)   # refuses what is not an int or Fraction
        self.rows, self.pivots = echelon(basis)
        self._members = None

    @property
    def ctx(self) -> Context:
        return Context(self.n)

    @property
    def basis(self) -> list[list[Fraction]]:
        """The canonical reduced echelon basis, in Fractions."""
        return fraction_rows(self.rows, self.pivots)

    def ambient_dim(self) -> int:
        return comb(self.n, self.r) + comb(self.n, self.p + 1 - self.r)

    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinSubspace)
            and (self.n, self.p, self.r) == (other.n, other.p, other.r)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.p, self.r,
                     tuple(tuple(row) for row in self.rows)))

    def members(self):
        """Basis as (MultiVec, Form) pairs: each echelon row over its
        pivot, written straight on the store as `const` writes it.  The
        subspace is immutable, so they are built on the first call; each
        call returns a fresh list."""
        if self._members is None:
            ctx, r, q = self.ctx, self.r, self.p + 1 - self.r
            mv_keys = [(I, 0) for I in _tuples(self.n, r)]
            fm_keys = [(J, 0) for J in _tuples(self.n, q)]
            nm = len(mv_keys)
            self._members = tuple(
                (MultiVec._raw(ctx, r, {k: a for k, a in zip(mv_keys, row)
                                        if a}, row[pc]),
                 Form._raw(ctx, q, {k: a for k, a in zip(fm_keys, row[nm:])
                                    if a}, row[pc]))
                for row, pc in zip(self.rows, self.pivots))
        return list(self._members)

    @staticmethod
    def from_elements(n: int, p: int, elems, r: int = 1) -> "LinSubspace":
        """Span of (MultiVec, Form) pairs in tier-r coordinates."""
        rows = [coords(Y) + coords(eta) for Y, eta in elems]
        return LinSubspace(n, p, rows, r)

    # The basis is in echelon form with the multivector block first, so the
    # rows that pivot there come first, and the rest are zero on that block.

    def _blocks(self, rows):
        """The echelon ``rows`` (`rows` or `basis`) cut in two: the
        multivector block of those that pivot there, and the form block
        of the rest, each again in echelon form."""
        nm = comb(self.n, self.r)
        return ([row[:nm] for row in rows if any(row[:nm])],
                [row[nm:] for row in rows if not any(row[:nm])])

    def tangent_part(self):
        """Canonical basis of the projection onto the multivector factor."""
        return self._blocks(self.basis)[0]

    def form_intersection(self):
        """Canonical basis of L intersected with the form factor."""
        return self._blocks(self.basis)[1]

    def __repr__(self):
        return (f"LinSubspace(n={self.n}, p={self.p}, r={self.r}, "
                f"dim={self.dim()})")


@lru_cache(maxsize=64)
def _pairing_tensor(n: int, p: int, r: int, s: int) -> tuple:
    """Twice the pairing <<u_i, v_j>> of the unit elements u_i of tier r
    with the unit elements v_j of tier s, read off `multi_pairing`.

    Units are ordered as coordinates: the unit multivectors, then the
    unit forms.  Entry j lists (i, t, 2 * coefficient) for the nonzero
    coefficients of <<u_i, v_j>>, t indexing the unit (p+1-r-s)-forms;
    every coefficient is +-1/2, so each stored int is +-1.  Only mixed
    pairs are computed: in (iota_Yb eta - (-1)^{rs} iota_Y etab)/2 both
    contractions meet a zero factor when both units are multivectors or
    both are forms, so those pairs pair to zero.
    """
    ctx = Context(n)

    def units(k):
        return ([SectionPr(p, k, MultiVec.basis(ctx, I),
                           Form.zero(ctx, p + 1 - k)) for I in _tuples(n, k)],
                [SectionPr(p, k, MultiVec.zero(ctx, k), Form.basis(ctx, J))
                 for J in _tuples(n, p + 1 - k)])

    mv_r, fm_r = units(r)
    mv_s, fm_s = units(s)
    return tuple(
        tuple((offset + i, t, int(2 * c))
              for i, u in enumerate(partners)
              for t, c in enumerate(coords(multi_pairing(u, v))) if c)
        for vs, partners, offset in ((mv_s, fm_r, len(mv_r)),
                                     (fm_s, mv_r, 0))
        for v in vs)


def _pairing_rows(L: LinSubspace, r: int) -> list[list[int]]:
    """The int matrix of u -> <<u, b>> on tier r, up to row scaling: one
    row per echelon row b of L and unit (p+1-r-s)-form, one column per
    tier-r unit."""
    n, p, s = L.n, L.p, L.r
    if r + s > p + 1:
        raise ValueError("tier overflow: r + s > p + 1")
    if not 1 <= r <= p:
        raise ValueError(f"tier {r} out of range 1..{p}")
    tensor = _pairing_tensor(n, p, r, s)
    amb = comb(n, r) + comb(n, p + 1 - r)
    rows = []
    for b in L.rows:
        block = [[0] * amb for _ in range(comb(n, p + 1 - r - s))]
        for x, entries in zip(b, tensor):
            if x:
                for i, t, v in entries:
                    block[t][i] += v * x
        rows += block
    return rows


def perp_tier(L: LinSubspace, r: int) -> LinSubspace:
    """(L)^{perp,r}: all tier-r elements pairing to zero with L, the
    kernel of the cached pairing tensor contracted with L's rows."""
    n, p = L.n, L.p
    # at large n most rows are zero or repeat another up to a factor
    rows = distinct_lines(_pairing_rows(L, r))
    amb = comb(n, r) + comb(n, p + 1 - r)
    return LinSubspace(n, p, int_kernel(rows, amb), r)


def _tier1_pairings(L: LinSubspace):
    """2<<a, b>> in coordinates for the echelon rows a, b of a tier-1
    L, one unordered pair at a time: the r = s = 1 pairing is
    symmetric."""
    rows = _pairing_rows(L, 1)
    nt = comb(L.n, L.p - 1)
    basis = L.rows
    for j in range(len(basis)):
        block = rows[j * nt:(j + 1) * nt]
        for a in basis[:j + 1]:
            yield [_dot(row, a) for row in block]


def perp(L: LinSubspace) -> LinSubspace:
    """L^perp inside T + /\\^p T* for the symmetric pairing
    <X+alpha, Y+beta> = iota_X beta + iota_Y alpha."""
    if L.r != 1:
        raise ValueError("perp acts on tier-1 subspaces")
    return perp_tier(L, 1)


def annihilator(n: int, rows) -> list[list[Fraction]]:
    """Covectors vanishing on the span of the given vectors."""
    return kernel_basis([list(r) for r in rows], n)


def _wedge_annihilator(n: int, rows, q: int) -> list[list[int]]:
    """Int rows spanning /\\^q S°, S the span of ``rows``: the q-fold
    wedges of the int kernel vectors."""
    return _wedge_rows(n, int_kernel(rows, n), q)


def classify(L: LinSubspace) -> dict:
    """Isotropy and two independent Lagrangian tests.

    `lagrangian` is perp(L) == L; `easychar` is the three-condition
    characterization (isotropic, form intersection equal to /\\^p S°,
    and dim S <= n-p or S = T); the two always agree.
    """
    if L.r != 1:
        raise ValueError("classify acts on tier-1 subspaces")
    n, p = L.n, L.p
    P = perp(L)
    lag = P == L
    iso = echelon(P.rows + L.rows)[0] == P.rows   # L inside L^perp
    S, forms = L._blocks(L.rows)
    easy = (
        iso
        and forms == echelon(_wedge_annihilator(n, S, p))[0]
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


def _tangent_rows(L: LinSubspace, rows):
    """S and the alpha_i with s_i + alpha_i in L, read off ``rows``,
    L's echelon rows as ints (`rows`) or Fractions (`basis`): those that
    pivot in T.  Refuses an L that is not Lagrangian."""
    if perp(L) != L:
        raise ValueError("input subspace is not Lagrangian")
    S = L._blocks(rows)[0]
    return S, [row[L.n:] for row in rows[:len(S)]]


def to_pair(L: LinSubspace) -> LagrangianPair:
    """Extract (S, Omega): S is the tangent projection, and
    Omega(s_i, s_j) = iota_{s_j} alpha_i for any s_i + alpha_i in L."""
    S, alphas = _tangent_rows(L, L.basis)
    n, p = L.n, L.p
    return LagrangianPair(n, p, S, {
        (i, j): const(Form, L.ctx, p - 1, _iota(n, S[j], alphas[i], p))
        for i, j in itertools.combinations(range(len(S)), 2)})


def _contraction_rows(n: int, q: int, S) -> list[list]:
    """Matrix of a -> (iota_s a for s in S) on constant q-forms: one
    column per unit q-form, one row per s and (q-1)-tuple."""
    m = comb(n, q)
    units = [[int(i == j) for i in range(m)] for j in range(m)]
    rows = []
    for s in S:
        cols = [_iota(n, s, u, q) for u in units]
        rows.extend([col[t] for col in cols] for t in range(comb(n, q - 1)))
    return rows


def _omega_extension_to_p_forms(pair: LagrangianPair):
    """Solve for beta_i in /\\^p T* with iota_{s_j} beta_i = Omega(s_i, s_j)
    for all i, j (including the diagonal zero); None if not extendable.

    The system is block-diagonal in i, with the same block for every i:
    the rows of iota_{s_j} on unit p-forms, stacked over j.  So one
    reduction with a right-hand side per i solves it.
    """
    n, p = pair.n, pair.p
    k = len(pair.S)
    rhss = [[c for j in range(k) for c in coords(pair.omega_at(i, j))]
            for i in range(k)]
    sols = solve_many(_contraction_rows(n, p, pair.S), rhss)
    if sols is None:
        return None
    return [const(Form, pair.ctx, p, sol) for sol in sols]


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
    # a unit (p+1)-form evaluates on p+1 vectors to their minor there
    for minors in _wedge_annihilator(n, S, p + 1):
        rows.append(minors)
        rhs.append(Fraction(0))
    sol = solve(rows, rhs) if rows else []
    if sol is None:
        raise ValueError("extension failed to restrict to beta")
    return const(Form, ctx, p + 1, sol)


def _normal_tier(n: int, p: int, S, alphas, r: int) -> LinSubspace:
    """D_r = span{(s_i ^ K, iota_K alpha_i)} + /\\^{p+1-r} S°, with K over
    the unit (r-1)-vectors (at r = 1 the element is (s_i, alpha_i)), for
    an echelon basis S of the tangent part of a Lagrangian L and any
    p-forms alpha_i with s_i + alpha_i in L.

    Any such alpha_i will do: for omega presenting L, alpha_i =
    iota_{s_i} omega + xi_i with xi_i in /\\^p S°.  Contraction takes the
    first wedge factor first, so iota_{s_i ^ K} omega = iota_K iota_{s_i}
    omega differs from iota_K alpha_i by iota_K xi_i, which lies in
    /\\^{p+1-r} S° and so already in D_r.
    """
    q = p + 1 - r
    rows = []
    for s, alpha in zip(S, alphas):
        sv, al = _sparse(n, 1, s), _sparse(n, p, alpha)
        for K in _tuples(n, r - 1):
            eK = {K: 1}
            rows.append(_dense(n, r, _cprod(_wedge_idx, sv, eK))
                        + _dense(n, q, _cprod(_contract_idx, eK, al)))
    zero = [0] * comb(n, r)
    rows += [zero + xi for xi in _wedge_annihilator(n, S, q)]
    return LinSubspace(n, p, rows, r)


def norom_subspace(n: int, p: int, S, omega: Form) -> LinSubspace:
    """L = {X + iota_X omega + alpha : X in S, alpha in /\\^p S°}; a zero
    omega of any degree is the zero (p+1)-form, giving S + /\\^p S°."""
    omega = coords(omega.as_degree(p + 1, "omega"))
    S = echelon([[_as_rat(x) for x in row] for row in S])[0]
    k = len(S)
    if not (k <= n - p or k == n):
        raise ValueError(f"dim S = {k} violates dim S <= {n - p} or S = T")
    return _normal_tier(n, p, S, [_iota(n, s, omega, p + 1) for s in S], 1)


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
    return _normal_tier(n, p, pair.S, [coords(b) for b in betas], 1)


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
    S, alphas = _tangent_rows(L, L.rows)
    return _normal_tier(L.n, L.p, S, alphas, r)


def nambu_dirac_check(L: LinSubspace) -> dict:
    """The two linear conditions singling out Nambu-Dirac subspaces:
    `iso_weak` — the pairing vanishes on (p-1)-tuples from S;
    `hismax` — /\\^p S equals the multivector projection of L^{perp,p}."""
    if L.r != 1:
        raise ValueError("nambu_dirac_check acts on tier-1 subspaces")
    n, p = L.n, L.p
    S = L._blocks(L.rows)[0]
    # a (p-1)-form evaluates on p - 1 vectors of S to the dot product
    # with their wedge, whose coordinates are their minors
    minors = _wedge_rows(n, S, p - 1)
    iso_weak = not any(_dot(pr, m) for pr in _tier1_pairings(L)
                       for m in minors)
    P = perp_tier(L, p)
    proj = P._blocks(P.rows)[0]
    return {"iso_weak": iso_weak,
            "hismax": span_equal(_wedge_rows(n, S, p), proj)}


def random_lagrangian(rng, n: int, p: int) -> LinSubspace:
    """Seeded random Lagrangian subspace via its normal presentation."""
    ctx = Context(n)
    dims = list(range(0, n - p + 1)) + [n]
    k = rng.choice(dims)
    S = echelon([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])[0]
    while len(S) < k:
        S = echelon(S + [[rng.randint(-3, 3) for _ in range(n)]])[0]
    omega = const(Form, ctx, p + 1,
                  [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
                   for _ in range(comb(n, p + 1))])
    return norom_subspace(n, p, S, omega)
