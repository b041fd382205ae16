"""L-infinity multibracket families and the morphisms between them.

A family lives on a complex concentrated in degrees [1-p, 0] and is
checked against the homotopy Jacobi relations

    sum_{i+j=n+1} sum_{sigma in Sh(i, n-i)}
        chi(sigma) (-1)^{i(j-1)} l_j(l_i(v_sigma(1..i)), v_sigma(i+1..n)) = 0

with chi the Koszul sign of the odd representation.  Two concrete
families are provided: the observables of a presented subbundle
(Hamiltonian (p-1)-forms in degree 0, lower forms below) and the
H-twisted brackets on sections of /\\^{r-1} T* + TM with lower forms
below.  Morphisms phi = {k: phi_k} between families are checked by one
relation, `morphism_residual` (Lada-Markl), whose first sum is the one
above with phi_j in place of the outer l_j.  Strict morphisms are
{1: phi}: scaling and gauge isomorphisms, and the prequantization map
f |-> (X_f, -f) from the observables of the graph of a two-form omega
into the omega-twisted family on TM + R.  The prequantum Lie-2 morphism
{1: (X, f) |-> (X, df), 2: phi2} goes from the sigma-twisted family on
TM + R to the untwisted one on TM + T*M.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .calculus import (
    Form,
    VField,
    _sort_sign,
    contract,
    deRham,
    lie_bracket,
    lie_derivative,
)
from .courant import SectionEp, courant, gauge
from .poly import Context, _as_rat, bernoulli
from .presentations import (
    HamiltonianDatum,
    NotHamiltonian,
    Presentation,
    ham_bracket,
    hamiltonian_solve,
)


# -- graded elements ---------------------------------------------------


class GradedElem:
    """An element of the complex, tagged with its (non-positive) degree.

    Degree-0 payloads are sections / Hamiltonian data; negative degrees
    carry plain forms.  The formal zero has degree None and absorbs in
    sums regardless of degree.
    """

    __slots__ = ("degree", "payload")

    def __init__(self, degree, payload):
        self.degree = degree
        self.payload = payload

    @staticmethod
    def zero() -> "GradedElem":
        return GradedElem(None, None)

    def is_zero(self) -> bool:
        return self.payload is None or self.payload.is_zero()

    def __add__(self, other: "GradedElem") -> "GradedElem":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degree")
        return GradedElem(self.degree, self.payload + other.payload)

    def __neg__(self) -> "GradedElem":
        if self.payload is None:
            return self
        return GradedElem(self.degree, -self.payload)

    def __sub__(self, other: "GradedElem") -> "GradedElem":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElem):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.degree == other.degree and self.payload == other.payload

    def __str__(self) -> str:
        return "0" if self.is_zero() else f"deg {self.degree}: {self.payload}"

    def __repr__(self) -> str:
        return f"GradedElem({self})"


# -- Koszul signs and unshuffles ---------------------------------------


def unshuffles(i: int, n: int):
    """(i, n-i)-unshuffles as 0-based index tuples: each block increasing."""
    idx = range(n)
    for first in itertools.combinations(idx, i):
        rest = tuple(k for k in idx if k not in first)
        yield first + rest


def koszul_sign(sigma, degrees) -> int:
    """chi(sigma): each adjacent swap contributes -(-1)^{|a||b|}."""
    return (_sort_sign(sigma)[0]
            * _sort_sign(sigma, lambda k: degrees[k] % 2)[0])


def _eps(k: int) -> int:
    """(-1)^{floor((k-1)/2)}: 1, -1, -1, 1, 1, -1, ... for k = 2, 3, ..."""
    return -1 if ((k - 1) // 2) % 2 else 1


# -- families ----------------------------------------------------------


class MultibracketFamily:
    """Base: graded-symmetric multibrackets l_n of degree 2-n on
    (depth - k)-forms in degree -k < 0 over a family's degree-0 part.

    The base owns that complex, l_1 = d, the zero-argument rule and the
    part of the degree rule `vanishes` that every family shares; a
    family adds its own part to `vanishes`, and defines
    ``_bracket(args)`` for arity >= 2 on nonzero arguments that the rule
    lets through, and ``_exact(d)``, the degree-0 element of the exact
    form d = l_1 of a degree -1 element.
    """

    max_arity: int  # l_n with n > max_arity is zero by degree
    depth: int  # complex lives in degrees [-depth, 0]

    def form(self, degree: int, xi: Form) -> GradedElem:
        if not -self.depth <= degree < 0:
            raise ValueError(f"degree {degree} out of range")
        return self._clamp(degree, xi.as_degree(self.depth + degree, "form"))

    def vanishes(self, degrees) -> bool:
        """Whether l on arguments of these degrees is zero by degree
        alone: here, when the arity n is above ``max_arity`` or the
        output degree sum + 2 - n lies outside [-depth, 0] (so l_1 on
        degree 0); each family adds its own rule."""
        n = len(degrees)
        out = sum(degrees) + 2 - n
        return n > self.max_arity or not -self.depth <= out <= 0

    def l(self, args: list[GradedElem]) -> GradedElem:
        if (any(a.is_zero() for a in args)
                or self.vanishes([a.degree for a in args])):
            return GradedElem.zero()
        if len(args) > 1:
            return self._bracket(args)
        a = args[0]
        d = deRham(a.payload)
        if a.degree == -1:
            return self._clamp(0, self._exact(d))
        return self._clamp(a.degree + 1, d)

    def _clamp(self, degree: int, payload) -> GradedElem:
        if payload is None or payload.is_zero() or not -self.depth <= degree <= 0:
            return GradedElem.zero()
        return GradedElem(degree, payload)


def _composites(F: MultibracketFamily, outer, elems,
                outer_vanishes=None) -> GradedElem:
    """sum_{i+j=n+1} sum_{sigma in Sh(i, n-i)} chi(sigma) (-1)^{i(j-1)}
    outer[j](l_i(v_sigma(1..i)), v_sigma(i+1..n)); ``outer[j]`` takes a
    list of j elements.  Arities i above ``F.max_arity`` and j not in
    ``outer`` are skipped before l_i is taken, and so is every term whose
    inner degrees ``F.vanishes``, or whose outer degrees (the inner
    output degree, then the rest) ``outer_vanishes``, when given."""
    n = len(elems)
    degrees = [e.degree if e.degree is not None else 0 for e in elems]
    total = GradedElem.zero()
    for i in range(1, min(n, F.max_arity) + 1):
        j = n + 1 - i
        if j not in outer:
            continue
        outer_sign = -1 if (i * (j - 1)) % 2 else 1
        for sigma in unshuffles(i, n):
            inner_degs = [degrees[k] for k in sigma[:i]]
            if F.vanishes(inner_degs) or outer_vanishes and outer_vanishes(
                    [sum(inner_degs) + 2 - i]
                    + [degrees[k] for k in sigma[i:]]):
                continue
            inner = F.l([elems[k] for k in sigma[:i]])
            if inner.is_zero():
                continue
            term = outer[j]([inner] + [elems[k] for k in sigma[i:]])
            same = koszul_sign(sigma, degrees) == outer_sign
            total = total + term if same else total - term
    return total


def check_relation(F: MultibracketFamily, elems: list[GradedElem]) -> GradedElem:
    """Residual of the n-th homotopy Jacobi relation on the given tuple."""
    return _composites(F, {j: F.l for j in range(1, F.max_arity + 1)}, elems,
                       F.vanishes)


class ObservablesFamily(MultibracketFamily):
    """Observables of a presented subbundle of order p.

    Degree 0: Hamiltonian (p-1)-forms with a chosen vector field;
    degree -k (0 < k < p): (p-1-k)-forms.  l_1 = d below degree 0,
    l_k(a_1,...,a_k) = eps(k) iota_{X_k} ... iota_{X_3} {a_1, a_2}
    on degree-0 tuples, eps(2), eps(3), ... = 1, -1, -1, 1, 1, -1, ...,
    and l_k = 0 for k >= 2 on a tuple with a lower form.
    """

    def __init__(self, P: Presentation):
        self.P = P
        self.depth = P.p - 1
        self.max_arity = P.p + 1

    def element(self, alpha: Form, X: VField | None = None) -> GradedElem:
        if X is None:
            X = hamiltonian_solve(self.P, alpha)
            if X is None:
                raise NotHamiltonian("alpha is not Hamiltonian")
        return GradedElem(0, HamiltonianDatum(self.P, alpha, X))

    def _exact(self, d: Form) -> HamiltonianDatum:
        return HamiltonianDatum(self.P, d, VField.zero(self.P.ctx))

    def vanishes(self, degrees) -> bool:
        """The shared rule, and any lower-form argument at arity >= 2."""
        return (super().vanishes(degrees)
                or len(degrees) > 1 and min(degrees) < 0)

    def _bracket(self, args: list[GradedElem]) -> GradedElem:
        data = [a.payload for a in args]
        br = ham_bracket(data[0], data[1])
        if len(data) == 2:
            return self._clamp(
                0, HamiltonianDatum(self.P, br,
                                    lie_bracket(data[0].X, data[1].X)))
        for d in data[2:]:
            br = contract(d.X, br)
        return self._clamp(2 - len(data), _eps(len(data)) * br)


class TwistedSectionsFamily(MultibracketFamily):
    """H-twisted multibrackets on sections of TM + /\\^{r-1} T*M.

    Degree 0: sections; degree -k (0 < k < r): (r-1-k)-forms.  l_1 = d
    below degree 0; l_2 is the H-twisted Courant bracket on two sections
    and half a Lie derivative on a section and a form.  For odd
    n = k + 1 >= 3 the form bracket is, in closed form,

      [xi, X_0, ..., X_{k-1}] = c_n (C(k,2) (2 + f) i_all d xi
          + 3/2 (k-1) sum_m (-1)^m i_{all - m} d i_m xi
          + sum_{i<j} (-1)^{i+j} i_{all - {i,j}} d i_{X_i} i_{X_j} xi),

    c_n = -2 B_{n-1} eps(n) / ((n-1)(n-2)), where i_S contracts the
    fields of S in increasing order, and f = 1 when xi is the form part
    of a section (degree r-1) and f = 0 on the lower forms.  It is
    Cartan's formula applied to -6 c_n sum_{i<j} (-1)^{i+j} i_{all - {i,j}}
    of the ternary bracket

      [xi, X1, X2] = -1/6 (1/2 (i_{X1} L_{X2} - i_{X2} L_{X1})
                           + i_{[X1,X2]} (+ f i_{X1} i_{X2} d)) xi,

    which `tests/test_linfty.py` keeps as the reference.  On sections
    the n-ary bracket adds a multiple of i_{X_n} ... i_{X_1} H; at n = 3
    on three sections it is -1/6 sum_cyc <[[e_i, e_j]]_H, e_k>.  Even
    arities >= 4 vanish (odd Bernoulli numbers are zero), and so does
    every bracket of two or more lower forms.
    """

    def __init__(self, r: int, ctx: Context, H: Form | None = None,
                 allow_nonclosed: bool = False):
        if r < 1:
            raise ValueError("order r must be >= 1")
        self.r = r
        self.ctx = ctx
        self.depth = r - 1
        self.max_arity = r + 1
        H = Form.zero(ctx, r + 1) if H is None else H.as_degree(r + 1, "twist")
        if not allow_nonclosed and not deRham(H).is_zero():
            raise ValueError("twist is not closed (pass allow_nonclosed "
                             "to experiment anyway)")
        self.H = H

    def section(self, X: VField, alpha: Form) -> GradedElem:
        return GradedElem(0, SectionEp(self.r - 1, X, alpha))

    def _exact(self, d: Form) -> SectionEp:
        return SectionEp(self.r - 1, VField.zero(self.ctx), d)

    def vanishes(self, degrees) -> bool:
        """The shared rule, two or more lower forms, or an even arity >= 4."""
        n = len(degrees)
        return (super().vanishes(degrees) or n >= 4 and n % 2 == 0
                or sum(d < 0 for d in degrees) >= 2)

    def _nary_form(self, xi: Form, Xs: list[VField], full: bool) -> Form:
        """[xi, X_0, ..., X_{k-1}] for odd n = k + 1 >= 3, in closed
        form."""
        return self._nary_sum([None, *Xs], {0: xi}, full)

    def _nary_sum(self, Xs: list, forms: dict, full: bool) -> Form:
        """The sum over the slots i of ``forms`` of (-1)^i [forms[i],
        Xs minus Xs[i]], each in closed form, with odd n = len(Xs) >= 3.
        Both d and every contraction are linear, so the terms are summed
        by the set of fields left to contract, and each set gets one d
        and one contraction chain."""
        n, k = len(Xs), len(Xs) - 1
        inner: dict = {}   # fields left to contract -> form under d

        def put(left, c, form):
            inner[left] = inner[left] + c * form if left in inner else c * form

        c_all = Fraction(k * (k - 1) * (2 + full), 2)
        c_one = Fraction(3 * (k - 1), 2)
        for i, xi in forms.items():
            s = -1 if i % 2 else 1
            rest = [m for m in range(n) if m != i]
            put(tuple(rest), s * c_all, xi)
            i_xi = {g: contract(Xs[g], xi) for g in rest}
            for m, g in enumerate(rest):
                put(tuple(rest[:m] + rest[m + 1:]), -s * c_one if m % 2
                    else s * c_one, i_xi[g])
            for (a, ga), (b, gb) in itertools.combinations(enumerate(rest),
                                                           2):
                put(tuple(g for g in rest if g not in (ga, gb)),
                    -s if (a + b) % 2 else s, contract(Xs[ga], i_xi[gb]))
        acc = Form.zero(self.ctx)
        for left, form in inner.items():
            form = deRham(form)
            for g in left:
                form = contract(Xs[g], form)
            acc = acc + form
        return Fraction(-2, k * (k - 1)) * bernoulli(k) * _eps(n) * acc

    def _bracket(self, args: list[GradedElem]) -> GradedElem:
        n = len(args)
        degs = [a.degree for a in args]
        out_deg = sum(degs) + 2 - n
        negs = [k for k, d in enumerate(degs) if d < 0]
        if n == 2:
            a, b = args
            if not negs:
                return self._clamp(0, courant(a.payload, b.payload, self.H))
            pos = negs[0]
            e = args[1 - pos].payload
            xi = args[pos].payload
            # canonical order puts the section first: l_2(e, xi) = L_X xi / 2
            sgn = 1 if pos % 2 else -1
            return self._clamp(out_deg,
                               sgn * Fraction(1, 2) * lie_derivative(e.X, xi))
        # odd n >= 3: one closed form per slot that carries a form, the
        # lower form's when there is one, else every section's alpha
        if negs:
            forms = {i: args[i].payload for i in negs}
        else:
            forms = {i: a.payload.alpha for i, a in enumerate(args)}
        acc = self._nary_sum([None if d < 0 else a.payload.X
                              for a, d in zip(args, degs)], forms, not negs)
        if not negs:
            iota_H = self.H
            for a in args:
                iota_H = contract(a.payload.X, iota_H)
            acc = acc + Fraction(n) * bernoulli(n - 1) * _eps(n) * iota_H
        return self._clamp(out_deg, acc)


# -- L-infinity morphisms ---------------------------------------------


@functools.lru_cache(maxsize=1024)
def _block_unshuffles(items: tuple, sizes: tuple, after: int = -1) -> tuple:
    """Partitions of ``items`` into increasing blocks whose sizes lie in
    the ascending tuple ``sizes``, each once, in Lada-Markl order: sizes
    nondecreasing, blocks of equal size ordered by first entry, and the
    first block of size ``sizes[0]`` starting after ``after``."""
    if not items or not sizes:
        return () if items else ((),)
    out = []
    for first in (x for x in items if x > after):
        later = [x for x in items if x > first]
        for others in itertools.combinations(later, sizes[0] - 1):
            block = (first,) + others
            rest = tuple(x for x in items if x not in block)
            out += [(block,) + t for t in _block_unshuffles(rest, sizes, first)]
    return tuple(out) + _block_unshuffles(items, sizes[1:])


def morphism_residual(src: MultibracketFamily, dst: MultibracketFamily,
                      phis: dict, elems: list[GradedElem]) -> GradedElem:
    """Residual of the n-th L-infinity morphism relation (Lada-Markl,
    hep-th/9406095) for phi = {k: phi_k}, phi_k of degree 1-k taking k
    elements of ``src``, on the given tuple:

      sum_{i+j=n+1} sum_{sigma in Sh(i, n-i)}
          chi(sigma) (-1)^{i(j-1)} phi_j(l_i(v_sigma(1..i)), v_sigma(i+1..n))
      - sum_{k_1 <= ... <= k_t} sum_tau chi(tau) (-1)^u
          l'_t(phi_{k_1}(v_tau(block 0)), ..., phi_{k_t}(v_tau(block t-1)))

    with tau over the (k_1, ..., k_t)-unshuffles and
    u = sum_s (t-1-s + |v in blocks before s|)(k_s - 1), s 0-based.
    A strict morphism is {1: phi}: the residual is phi l_n - l'_n phi.
    Every term is multilinear in all of the v, so a zero v gives zero.

    Between the two families here the factor (-1)^u is always 1.  phi_k
    for k >= 2 has degree 1 - k < 0, and the brackets of arity >= 2 of
    both families vanish on two arguments of negative degree.  So a
    nonzero term has at most one block of size >= 2; that block sorts
    last, after singletons of degree 0, and u = 0.  Only a target family
    whose brackets take two lower arguments can test the sign.
    """
    if any(e.is_zero() for e in elems):
        return GradedElem.zero()
    degrees = [e.degree for e in elems]
    outer = {k: (lambda args, phi=phi: phi(*args)) for k, phi in phis.items()}
    lhs, rhs = _composites(src, outer, elems), GradedElem.zero()
    parts = _block_unshuffles(tuple(range(len(elems))), tuple(sorted(phis)))
    for blocks in (b for b in parts if len(b) <= dst.max_arity):
        t, u, before = len(blocks), 0, 0
        for s, b in enumerate(blocks):
            u += (t - 1 - s + before) * (len(b) - 1)
            before += sum(degrees[k] for k in b)
        sign = koszul_sign([k for b in blocks for k in b], degrees) * (-1) ** u
        term = dst.l([phis[len(b)](*(elems[k] for k in b)) for b in blocks])
        rhs = rhs + term if sign > 0 else rhs - term
    return lhs - rhs


def lambda_scale_map(lam, dst_P: Presentation):
    """phi: multiply every component by lambda, retargeting Hamiltonian
    data at the lambda-scaled subbundle (same vector fields)."""
    lam = _as_rat(lam)

    def phi(a: GradedElem) -> GradedElem:
        if a.degree == 0:
            return GradedElem(0, HamiltonianDatum(dst_P, a.payload.alpha * lam,
                                                  a.payload.X))
        return GradedElem(a.degree, a.payload * lam)

    return phi


def gauge_map(B: Form):
    """phi = e^{-B}: X + alpha -> X + alpha - iota_X B on degree 0,
    identity below; intertwines the H- and (H + dB)-twisted families."""
    minus_B = -B

    def phi(a: GradedElem) -> GradedElem:
        return GradedElem(0, gauge(a.payload, minus_B)) if a.degree == 0 else a

    return phi


def prequantization_map(P: Presentation):
    """phi: f |-> (X_f, -f), from the observables of an order-1
    presentation (the graph of a two-form omega) to the order-0 sections
    of the omega-twisted family on TM + R."""
    if P.p != 1:
        raise ValueError("prequantization needs a two-form graph (order 1)")

    def phi(a: GradedElem) -> GradedElem:
        return GradedElem(0, SectionEp(0, a.payload.X, -a.payload.alpha))

    return phi


# -- the prequantum Lie-2 morphism -------------------------------------


def prequantum_phi0(e: SectionEp) -> SectionEp:
    """(X, f) |-> (X, df), a section of TM + T*M."""
    return SectionEp(1, e.X, deRham(e.alpha))


def prequantum_phi2(e1: SectionEp, e2: SectionEp, sigma: Form) -> Form:
    """(x, y) |-> 1/2 (X(g) - Y(f)) + sigma(X, Y), a function."""
    f, g = e1.alpha.to_poly(), e2.alpha.to_poly()
    tw = contract(e2.X, contract(e1.X, sigma)).to_poly()
    return Form.from_poly(Fraction(1, 2) * (e1.X(g) - e2.X(f)) + tw)


def check_prequantum_morphism(sigma: Form, pairs, triples) -> dict:
    """Check the Lie-2 morphism phi = {1: (X, f) |-> (X, df), 2: phi2}
    from (TM + R, [.,.]_sigma) to the untwisted family on TM + T*M.

    The source is `TwistedSectionsFamily(1, ctx, sigma)`: its l_2 on
    order-0 sections is the sigma-bracket [X+f, Y+g]_sigma = [X,Y] +
    X(g) - Y(f) + sigma(X,Y), and it is concentrated in degree 0, so the
    arity-1 relation (chain map, and phi1 against unary brackets) holds
    vacuously.  Arities 2 and 3 are `morphism_residual`.  On non-closed
    sigma the Jacobiator (arity-3) relation fails; its residual is
    reported with the sign of (phi2 terms) - l'_3(phi1 x, phi1 y, phi1 z),
    minus Lada-Markl's, and compared against d sigma contracted with the
    three vector fields.
    """
    ctx = sigma.ctx
    src = TwistedSectionsFamily(1, ctx, sigma, allow_nonclosed=True)
    dst = TwistedSectionsFamily(2, ctx)
    phis = {1: lambda a: GradedElem(0, prequantum_phi0(a.payload)),
            2: lambda a, b: dst.form(-1, prequantum_phi2(a.payload,
                                                         b.payload, sigma))}
    report = {"chain_map": {"status": "pass", "witnesses": [],
                            "note": "source concentrated in degree 0"},
              "unary_vs_phi1": {"status": "pass", "witnesses": [],
                                "note": "source concentrated in degree 0"}}
    wit = []
    for x, y in pairs:
        res = morphism_residual(src, dst, phis,
                                [GradedElem(0, x), GradedElem(0, y)])
        if not res.is_zero():
            wit.append(f"bracket defect on ({x}; {y}): {res}")
    report["bracket_defect"] = {"status": "pass" if not wit else "fail",
                                "witnesses": wit}
    wit, residuals = [], []
    for x, y, z in triples:
        res = -morphism_residual(src, dst, phis,
                                 [GradedElem(0, v) for v in (x, y, z)])
        if not res.is_zero():
            ds = contract(z.X, contract(y.X, contract(x.X, deRham(sigma))))
            residuals.append({"residual": str(res), "equals_dsigma(X,Y,Z)":
                              res == GradedElem(-1, ds)})
            wit.append(f"Jacobiator defect on ({x}; {y}; {z}): {res}")
    report["jacobiator_defect"] = {
        "status": "pass" if not wit else "fail",
        "witnesses": wit, "residuals": residuals}
    report["status"] = ("pass" if all(v["status"] == "pass"
                                      for v in report.values()) else "fail")
    return report
