"""End-to-end acceptance gate.

One test per release criterion; each prints a single PASS/FAIL line and
enforces its runtime budget.  All arithmetic is exact, so every check is
zero-tolerance equality.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from diracspace.poly import Context, Poly
from diracspace.calculus import (Form, MultiVec, contract, deRham,
                                 schouten, wedge)
from diracspace.courant import (SectionEp, SectionPr, courant, multi_bracket,
                                multi_pairing)
from diracspace.graded import derived_check, oracle_compare
from diracspace.lagrangian import (LinSubspace, classify, const_vfield,
                                   extend_to_form, from_pair, multidirac_tier,
                                   nambu_dirac_check, norom_subspace,
                                   perp_tier, random_lagrangian, span_basis,
                                   to_pair)
from diracspace.linfty import (ObservablesFamily,
                               TwistedSectionsFamily,
                               check_prequantum_morphism, check_relation,
                               gauge_map, lambda_scale_map,
                               morphism_residual, prequantization_map)
from diracspace.presentations import (GraphForm, HamiltonianDatum, Regular,
                                      ScaledTop, ham_bracket,
                                      hamiltonian_solve)
from diracspace.sampling import (random_closed_form, random_constant_form,
                                 random_form, random_multivec,
                                 random_observables_elem, random_poly,
                                 random_twisted_elem, random_vfield)


def gate(num, ok, summary, elapsed, budget):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {summary} " \
        f"({elapsed:.1f}s / {budget}s budget)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_observables_relations():
    rng = random.Random(101)
    t0 = time.monotonic()
    checked = 0
    for p, dim in [(1, 2), (2, 3), (3, 4)]:
        ctx = Context(dim)
        vol = Form(ctx, dim, {tuple(ctx.axes()): Poly.constant(ctx, 1)})
        poly_w = vol + Form(ctx, dim, {
            tuple(ctx.axes()): random_poly(rng, ctx, 2)})
        for w in (vol, poly_w):
            F = ObservablesFamily(GraphForm(dim, p, w))
            for n in range(1, p + 3):
                for _ in range(50):
                    elems = [random_observables_elem(rng, F)
                             for _ in range(n)]
                    assert check_relation(F, elems).is_zero(), (p, n)
                    checked += 1
    gate(1, checked == sum(50 * (p + 2) * 2 for p in (1, 2, 3)),
         f"observables homotopy relations exact on {checked} tuples "
         "(p=1,2,3; constant and polynomial volume)",
         time.monotonic() - t0, 60)


def test_criterion_2_getzler_relations():
    rng = random.Random(202)
    t0 = time.monotonic()
    ctx3, ctx4 = Context(3), Context(4)
    checked = 0
    for r, ctx in [(2, ctx3), (3, ctx4)]:
        Hs = [None, Form(ctx, ctx.dim,
                         {tuple(ctx.axes()): random_poly(rng, ctx, 2)})]
        for H in Hs:
            if H is not None:
                assert deRham(H).is_zero()
            F = TwistedSectionsFamily(r, ctx, H)
            for n in range(1, r + 3):
                for _ in range(50):
                    elems = [random_twisted_elem(rng, F) for _ in range(n)]
                    assert check_relation(F, elems).is_zero(), (r, n)
                    checked += 1
    # negative control: a non-closed twist must break some relation
    Hbad = Form(ctx4, 3, {(1, 2, 3): Poly.variable(ctx4, 4)})
    Fbad = TwistedSectionsFamily(2, ctx4, Hbad, allow_nonclosed=True)
    broke = False
    for n in (2, 3):
        for _ in range(10):
            elems = [random_twisted_elem(rng, Fbad) for _ in range(n)]
            if not check_relation(Fbad, elems).is_zero():
                broke = True
    gate(2, checked == 50 * (4 + 5) * 2 and broke,
         f"twisted-section relations exact on {checked} tuples "
         "(r=2,3; H=0 and closed H); non-closed twist breaks them",
         time.monotonic() - t0, 120)


def test_criterion_3_oracle_equivalence():
    rng = random.Random(303)
    t0 = time.monotonic()
    mismatches = []
    checked = 0
    for r, dim in [(2, 3), (3, 4)]:
        ctx = Context(dim)
        H = Form(ctx, ctx.dim, {tuple(ctx.axes()): random_poly(rng, ctx, 1)})
        for twist in (None, H):
            # structural facts and the master-equation check behind the
            # oracle come first
            rep = derived_check(r, ctx, random.Random(r), twist, samples=3)
            assert rep["status"] == "pass", rep
            F = TwistedSectionsFamily(r, ctx, twist)
            for n in (2, 3, 5):
                deg = 0 if n == 5 else 1  # keep arity 5 inside the budget
                tuples = []
                for t in range(25):
                    kinds = [0] * n
                    if t % 2 and n < 5:
                        kinds[rng.randrange(n)] = rng.randrange(1, r)
                    tuples.append(
                        [random_twisted_elem(rng, F, max_deg=deg) if k == 0
                         else F.form(-k, random_form(rng, ctx, r - 1 - k,
                                                     max_deg=deg))
                         for k in kinds])
                mismatches += oracle_compare(F, tuples)
                checked += len(tuples)
    gate(3, not mismatches and checked == 2 * 2 * 3 * 25,
         f"derived-bracket oracle equals the direct family on {checked} "
         "tuples (r=2,3; arities 2,3,5) with all structural facts",
         time.monotonic() - t0, 180)


def test_criterion_4_prequantum_morphism():
    rng = random.Random(404)
    t0 = time.monotonic()
    ctx = Context(3)

    def e0():
        return SectionEp(0, random_vfield(rng, ctx, max_deg=1),
                         Form.from_poly(random_poly(rng, ctx, max_deg=2)))

    ok = True
    for sigma in (Form(ctx, 2, {(1, 2): Poly.constant(ctx, 1)}),
                  random_closed_form(rng, ctx, 2)):
        pairs = [(e0(), e0()) for _ in range(25)]
        triples = [tuple(e0() for _ in range(3)) for _ in range(25)]
        rep = check_prequantum_morphism(sigma, pairs, triples)
        ok = ok and rep["status"] == "pass"
    sigma = Form(ctx, 2, {(1, 2): Poly.variable(ctx, 3)})
    triples = [tuple(e0() for _ in range(3)) for _ in range(10)]
    rep = check_prequantum_morphism(sigma, [], triples)
    residuals = rep["jacobiator_defect"]["residuals"]
    ok = ok and residuals and all(r["equals_dsigma(X,Y,Z)"]
                                  for r in residuals)
    gate(4, ok,
         "all four morphism equations hold for two closed sigma on 50 "
         "tuples each; non-closed sigma leaves exactly the d-sigma residual",
         time.monotonic() - t0, 30)


def test_criterion_5_lagrangian_linear_algebra():
    rng = random.Random(505)
    t0 = time.monotonic()
    # round trip through the (S, Omega) normal form
    for _ in range(200):
        n = rng.randint(1, 4)
        p = rng.randint(1, min(3, n))
        L = random_lagrangian(rng, n, p)
        assert from_pair(to_pair(L)) == L
        assert L.dim() == len(L.tangent_part()) + comb(
            n - len(L.tangent_part()), p)
    # the two Lagrangian characterizations agree everywhere
    for rows in itertools.product(
            itertools.product((-1, 0, 1), repeat=2), repeat=2):
        c = classify(LinSubspace(1, 1, [list(r) for r in rows]))
        assert c["lagrangian"] == c["easychar"]
    for _ in range(500):
        n = rng.choice([2, 3])
        p = rng.choice([1, 2])
        amb = n + comb(n, p)
        rows = [[Fraction(rng.randint(-1, 1)) for _ in range(amb)]
                for _ in range(rng.randint(0, amb))]
        c = classify(LinSubspace(n, p, rows))
        assert c["lagrangian"] == c["easychar"]
    # prescribed restrictions extend to a global constant form
    done = 0
    while done < 50:
        n = rng.choice([3, 4])
        p = rng.choice([1, 2])
        ctx = Context(n)
        S = span_basis([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                        for _ in range(rng.randint(1, n - 1))])
        if not S:
            continue
        w0 = random_constant_form(rng, ctx, p + 1)
        betas = [contract(const_vfield(ctx, row), w0) for row in S]
        w = extend_to_form(n, p, S, betas)
        for row, beta in zip(S, betas):
            assert contract(const_vfield(ctx, row), w) == beta
        done += 1
    # the plane-with-degenerate-volume example: dim 3, weak isotropy
    # holds, the top-tier span condition fails
    ctx4 = Context(4)
    L = norom_subspace(4, 2, [[1, 0, 0, 0], [0, 1, 0, 0]],
                       Form.basis(ctx4, (1, 2, 3)))
    nd = nambu_dirac_check(L)
    ok = L.dim() == 3 == 2 + comb(2, 2) and classify(L)["lagrangian"] \
        and nd["iso_weak"] and not nd["hismax"]
    gate(5, ok,
         "200 pair round trips, 500+exhaustive classification agreements, "
         "50 form extensions; degenerate-plane example has dim 3 and fails "
         "the top-tier span test",
         time.monotonic() - t0, 60)


def test_criterion_6_multidirac_tiers():
    rng = random.Random(606)
    t0 = time.monotonic()
    # tier formula vs. brute-force orthogonal, plus isotropy of the tiers
    for _ in range(20):
        n = rng.choice([3, 4])
        p = rng.choice([2, 3])
        if p > n:
            continue
        L = random_lagrangian(rng, n, p)
        tiers = {r: multidirac_tier(L, r) for r in range(1, p + 1)}
        assert tiers[1] == L
        for r in range(1, p + 1):
            assert tiers[r] == perp_tier(L, r)
        for r in range(1, p + 1):
            for s in range(1, p + 1):
                if r + s > p + 1:
                    continue
                for Y, eta in tiers[r].members():
                    a = SectionPr(p, r, Y, eta)
                    for Yb, etab in tiers[s].members():
                        assert multi_pairing(
                            a, SectionPr(p, s, Yb, etab)).is_zero()
    # tier (1,1) bracket is the Courant bracket
    for _ in range(50):
        p, ctx = rng.choice([(1, Context(3)), (2, Context(4))])
        e1 = SectionEp(p, random_vfield(rng, ctx, 1),
                       random_form(rng, ctx, p, max_deg=1))
        e2 = SectionEp(p, random_vfield(rng, ctx, 1),
                       random_form(rng, ctx, p, max_deg=1))
        got = multi_bracket(SectionPr.from_section(e1),
                            SectionPr.from_section(e2))
        assert (got.to_section() - courant(e1, e2)).is_zero()
    # bracket identity on graph sections of an arbitrary (p+1)-form
    ctx = Context(4)
    for p in (2, 3):
        for _ in range(10):
            w = random_form(rng, ctx, p + 1, max_deg=1)
            Y = random_vfield(rng, ctx, 1).to_multivec()
            Yb = random_vfield(rng, ctx, 1).to_multivec()
            got = multi_bracket(SectionPr(p, 1, Y, contract(Y, w)),
                                SectionPr(p, 1, Yb, contract(Yb, w)))
            mv = schouten(Y, Yb)
            assert (got.Y - mv).is_zero()
            assert (got.eta - contract(mv, w)
                    + contract(Y, contract(Yb, deRham(w)))).is_zero()
    # bracket identity against a scaled closed conormal form
    for (n, p, r, s, k) in [(4, 2, 1, 2, 2), (4, 3, 2, 2, 2)]:
        ctx = Context(n)
        S = list(range(1, k + 1))
        w = random_closed_form(rng, ctx, p + 1)
        comps = {K: random_poly(rng, ctx, 1)
                 for K in itertools.combinations(ctx.axes(), r)
                 if set(K) <= set(S)}
        Y = MultiVec(ctx, r, comps)
        f = random_poly(rng, ctx)
        al = Form.basis(ctx, tuple(i for i in ctx.axes()
                                   if i not in S)[:p + 1 - s])
        got = multi_bracket(SectionPr(p, r, Y, contract(Y, w)),
                            SectionPr(p, s, MultiVec.zero(ctx, s), f * al))
        want = contract(Y, wedge(deRham(Form.from_poly(f)), al))
        assert got.Y.is_zero() and (got.eta - want).is_zero()
    gate(6, True,
         "tier formula equals brute-force orthogonal with tier isotropy; "
         "tier-(1,1) bracket is Courant on 50 pairs; both bracket "
         "identities reproduce exactly",
         time.monotonic() - t0, 60)


def test_criterion_7_dirac_presentations():
    rng = random.Random(707)
    t0 = time.monotonic()
    ctx3, ctx4, ctx5 = Context(3), Context(4), Context(5)
    # graph of a 2-form passes iff the form is closed
    for _ in range(10):
        w = random_closed_form(rng, ctx3, 2)
        P = GraphForm(3, 1, w)
        assert P.verify_isotropic()["status"] == "pass"
        assert P.verify_involutive()["status"] == "pass"
    for w in (Form(ctx3, 2, {(1, 2): Poly.variable(ctx3, 3)}),
              random_form(rng, ctx3, 2, max_deg=2) +
              Form(ctx3, 2, {(2, 3): Poly.variable(ctx3, 1)})):
        if deRham(w).is_zero():
            continue
        rep = GraphForm(3, 1, w).verify_involutive()
        assert rep["status"] == "fail" and rep["witnesses"]
    # regular-distribution fixtures: one passing, one failing
    good = Regular(4, 2, [1, 2], Form.basis(ctx4, (1, 2, 3)))
    assert good.verify_isotropic()["status"] == "pass"
    assert good.verify_involutive()["status"] == "pass"
    bad = Regular(5, 2, [1, 2, 3],
                  Form(ctx5, 3, {(2, 3, 4): Poly.variable(ctx5, 1)}))
    rep = bad.verify_involutive()
    assert rep["status"] == "fail" and rep["witnesses"]
    # scaled top multivector
    ST = ScaledTop(3, Poly.variable(ctx3, 1), Form.basis(ctx3, (1, 2, 3)))
    assert ST.verify_isotropic()["status"] == "pass"
    assert ST.verify_involutive()["status"] == "pass"
    # Hamiltonian bracket Jacobiator on volume presentations, dims 3..5
    for dim in (3, 4, 5):
        ctx = Context(dim)
        P = GraphForm(dim, dim - 1,
                      Form(ctx, dim, {tuple(ctx.axes()):
                                      Poly.constant(ctx, 1)}))

        def datum():
            al = random_form(rng, P.ctx, P.p - 1, max_deg=1)
            return HamiltonianDatum(P, al, hamiltonian_solve(P, al))

        def hb(x, y):
            f = ham_bracket(x, y)
            return HamiltonianDatum(P, f, hamiltonian_solve(P, f))

        for _ in range(5):
            a, b, c = datum(), datum(), datum()
            assert (ham_bracket(a, b) + ham_bracket(b, a)).is_zero()
            lhs = ham_bracket(a, hb(b, c)) + ham_bracket(b, hb(c, a)) \
                + ham_bracket(c, hb(a, b))
            assert lhs == -deRham(contract(a.X, ham_bracket(b, c)))
    gate(7, True,
         "graph/regular/scaled-top verdicts match closedness with "
         "witnessed failures; Hamiltonian Jacobiator identity exact on "
         "volume presentations in dims 3, 4, 5",
         time.monotonic() - t0, 60)


def test_criterion_8_isomorphism_suite():
    rng = random.Random(808)
    t0 = time.monotonic()
    ctx2, ctx3 = Context(2), Context(3)
    lam = Fraction(2)
    vol3 = Form(ctx3, 3, {(1, 2, 3): Poly.constant(ctx3, 1)})
    Fa = ObservablesFamily(GraphForm(3, 2, vol3))
    Fb = ObservablesFamily(GraphForm(3, 2, vol3 * lam))
    tuples = [[random_observables_elem(rng, Fa)
               for _ in range(rng.randint(1, 3))] for _ in range(25)]
    phi = lambda_scale_map(lam, Fb.P)
    ok = all(morphism_residual(Fa, Fb, {1: phi}, t).is_zero() for t in tuples)
    H = Form(ctx3, 3, {(1, 2, 3): random_poly(rng, ctx3, 1)})
    B = random_form(rng, ctx3, 2, max_deg=2)
    F1 = TwistedSectionsFamily(2, ctx3, H)
    F2 = TwistedSectionsFamily(2, ctx3, H + deRham(B))
    tuples = [[random_twisted_elem(rng, F1)
               for _ in range(rng.randint(1, 3))] for _ in range(25)]
    ok = ok and all(morphism_residual(F1, F2, {1: gauge_map(B)}, t).is_zero()
                    for t in tuples)
    P = GraphForm(2, 1, Form.basis(ctx2, (1, 2)))
    F = ObservablesFamily(P)
    pairs = [[F.element(Form.from_poly(random_poly(rng, ctx2, max_deg=3))),
              F.element(Form.from_poly(random_poly(rng, ctx2, max_deg=3)))]
             for _ in range(50)]
    F1 = TwistedSectionsFamily(1, ctx2, P.omega)
    phi = prequantization_map(P)
    ok = ok and all(morphism_residual(F, F1, {1: phi}, t).is_zero()
                    for t in pairs)
    gate(8, ok,
         "scale and gauge maps are strict morphisms on 25 samples each; "
         "prequantization is a strict morphism on 50 polynomial pairs",
         time.monotonic() - t0, 30)
