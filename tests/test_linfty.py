import itertools
import random
from fractions import Fraction

import pytest

from diracspace.poly import Context, Poly, bernoulli
from diracspace.calculus import (Form, VField, contract, deRham, lie_bracket,
                                  lie_derivative)
from diracspace.graded import ORACLE_MAX_ARITY, encode_element, oracle_bracket
from diracspace.courant import SectionEp
from diracspace import linfty
from diracspace.linfty import (GradedElem, ObservablesFamily,
                               TwistedSectionsFamily, _block_unshuffles,
                               check_prequantum_morphism, check_relation,
                               gauge_map, koszul_sign, lambda_scale_map,
                               morphism_residual, prequantization_map,
                               prequantum_phi0, prequantum_phi2, unshuffles)
from diracspace.presentations import GraphForm
from diracspace.sampling import (random_closed_form, random_form,
                                 random_observables_elem, random_poly,
                                 random_twisted_elem, random_vfield)

rng = random.Random(707)

ctx2 = Context(2)
ctx3 = Context(3)
ctx4 = Context(4)
vol3 = Form(ctx3, 3, {(1, 2, 3): Poly.constant(ctx3, 1)})
vol4 = Form(ctx4, 4, {(1, 2, 3, 4): Poly.constant(ctx4, 1)})


def test_unshuffles_and_koszul_signs():
    sh = list(unshuffles(2, 4))
    assert len(sh) == 6
    assert all(s[0] < s[1] and s[2] < s[3] for s in sh)
    # a transposition of two odd entries is free; of two evens costs -1
    assert koszul_sign((1, 0), [1, 1]) == 1
    assert koszul_sign((1, 0), [0, 0]) == -1
    assert koszul_sign((1, 0), [0, 1]) == -1


def test_observables_relations_constant_omega():
    for name, P in [("p=1", GraphForm(2, 1, Form.basis(ctx2, (1, 2)))),
                    ("p=2", GraphForm(3, 2, vol3))]:
        F = ObservablesFamily(P)
        for n in range(1, P.p + 3):
            for _ in range(5):
                elems = [random_observables_elem(rng, F) for _ in range(n)]
                assert check_relation(F, elems).is_zero(), (name, n)


def test_observables_relations_polynomial_omega():
    w = vol3 + Form(ctx3, 3, {(1, 2, 3): Poly.variable(ctx3, 1)})
    F = ObservablesFamily(GraphForm(3, 2, w))
    for n in range(1, 5):
        for _ in range(4):
            elems = [random_observables_elem(rng, F) for _ in range(n)]
            assert check_relation(F, elems).is_zero()


def test_getzler_relations():
    for r, ctx, H in [
            (2, ctx3, None),
            (2, ctx3, Form(ctx3, 3, {(1, 2, 3): random_poly(rng, ctx3, 2)})),
            (3, ctx4, None),
            (3, ctx4, Form(ctx4, 4,
                           {(1, 2, 3, 4): random_poly(rng, ctx4, 1)}))]:
        F = TwistedSectionsFamily(r, ctx, H)
        for n in range(1, r + 3):
            for _ in range(4):
                elems = [random_twisted_elem(rng, F) for _ in range(n)]
                assert check_relation(F, elems).is_zero(), (r, n)


def test_nonclosed_twist_breaks_relations():
    Hbad = Form(ctx4, 3, {(1, 2, 3): Poly.variable(ctx4, 4)})
    with pytest.raises(ValueError):
        TwistedSectionsFamily(2, ctx4, Hbad)
    F = TwistedSectionsFamily(2, ctx4, Hbad, allow_nonclosed=True)
    broke = 0
    for n in (2, 3):
        for _ in range(10):
            elems = [random_twisted_elem(rng, F) for _ in range(n)]
            if not check_relation(F, elems).is_zero():
                broke += 1
    assert broke > 0


def test_binary_bracket_is_twisted_courant():
    from diracspace.courant import courant
    H = Form(ctx3, 3, {(1, 2, 3): random_poly(rng, ctx3, 1)})
    F = TwistedSectionsFamily(2, ctx3, H)
    for _ in range(5):
        e1 = random_twisted_elem(rng, F)
        e2 = random_twisted_elem(rng, F)
        if e1.degree != 0 or e2.degree != 0:
            continue
        got = F.l([e1, e2])
        assert got.payload == courant(e1.payload, e2.payload, H)


def _rand_e0():
    return SectionEp(0, random_vfield(rng, ctx3, max_deg=1),
                     Form.from_poly(random_poly(rng, ctx3, max_deg=2)))


def test_prequantum_morphism_closed_sigma():
    for sigma in (Form(ctx3, 2, {(1, 2): Poly.constant(ctx3, 1)}),
                  random_closed_form(rng, ctx3, 2)):
        pairs = [(_rand_e0(), _rand_e0()) for _ in range(8)]
        triples = [tuple(_rand_e0() for _ in range(3)) for _ in range(8)]
        rep = check_prequantum_morphism(sigma, pairs, triples)
        assert rep["status"] == "pass", rep


def test_prequantum_morphism_nonclosed_residual_is_dsigma():
    sigma = Form(ctx3, 2, {(1, 2): Poly.variable(ctx3, 3)})
    triples = [tuple(_rand_e0() for _ in range(3)) for _ in range(6)]
    rep = check_prequantum_morphism(sigma, [], triples)
    residuals = rep["jacobiator_defect"]["residuals"]
    assert residuals
    assert all(r["equals_dsigma(X,Y,Z)"] for r in residuals)


def test_order0_courant_is_the_sigma_bracket():
    # reference: [X+f, Y+g]_sigma = [X,Y] + X(g) - Y(f) + sigma(X,Y)
    from diracspace.calculus import contract, lie_bracket
    from diracspace.courant import courant
    local = random.Random(708)

    def e0():
        return SectionEp(0, random_vfield(local, ctx3, max_deg=1),
                         Form.from_poly(random_poly(local, ctx3, max_deg=2)))

    for sigma in (random_closed_form(local, ctx3, 2),
                  Form(ctx3, 2, {(1, 2): Poly.variable(ctx3, 3)}),
                  random_form(local, ctx3, 2, max_deg=1)):
        for _ in range(6):
            e1, e2 = e0(), e0()
            f, g = e1.alpha.to_poly(), e2.alpha.to_poly()
            tw = contract(e2.X, contract(e1.X, sigma)).to_poly()
            ref = SectionEp(0, lie_bracket(e1.X, e2.X),
                            Form.from_poly(e1.X(g) - e2.X(f) + tw))
            assert courant(e1, e2, sigma) == ref


def test_ternary_section_bracket_is_the_cyclic_courant_sum():
    # reference: l_3(e1, e2, e3) = -1/6 sum_cyc <[[e_i, e_j]]_H, e_k> on
    # three sections, for closed and non-closed twists H
    from diracspace.courant import courant, pairing
    local = random.Random(709)
    nonclosed = Form(ctx4, 3, {(1, 2, 3): Poly.variable(ctx4, 4)})
    assert not deRham(nonclosed).is_zero()
    cases = [(2, ctx3, random_closed_form(local, ctx3, 3)),
             (2, ctx4, random_closed_form(local, ctx4, 3)),
             (2, ctx4, nonclosed),
             (2, ctx4, nonclosed + random_form(local, ctx4, 3, max_deg=1)),
             (3, ctx4, random_closed_form(local, ctx4, 4))]
    nonzero = 0
    for r, ctx, H in cases:
        F = TwistedSectionsFamily(r, ctx, H, allow_nonclosed=True)
        for _ in range(5):
            es = [SectionEp(r - 1, random_vfield(local, ctx, max_deg=1),
                            random_form(local, ctx, r - 1, max_deg=1))
                  for _ in range(3)]
            ref = Form.zero(ctx)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                ref = ref + pairing(courant(es[i], es[j], H), es[k])
            ref = Fraction(-1, 6) * ref
            got = F.l([F.section(e.X, e.alpha) for e in es])
            if ref.is_zero():
                assert got.is_zero()
            else:
                nonzero += 1
                assert got.degree == -1 and got.payload == ref
    assert nonzero > 0


def test_prequantization_identity():
    # f |-> (X_f, -f) is a strict morphism Obs(graph omega) -> Tw(1, omega)
    P = GraphForm(2, 1, Form.basis(ctx2, (1, 2)))
    F = ObservablesFamily(P)
    pairs = [[F.element(Form.from_poly(random_poly(rng, ctx2, max_deg=3))),
              F.element(Form.from_poly(random_poly(rng, ctx2, max_deg=3)))]
             for _ in range(10)]
    phi = prequantization_map(P)
    F1 = TwistedSectionsFamily(1, ctx2, P.omega)
    assert all(morphism_residual(F, F1, {1: phi}, t).is_zero() for t in pairs)
    # composed with phi0 it is f |-> X_f - df
    for a in (a for pair in pairs for a in pair):
        X, f = a.payload.X, a.payload.alpha
        assert prequantum_phi0(phi(a).payload) == SectionEp(1, X, -deRham(f))
    with pytest.raises(ValueError):
        prequantization_map(GraphForm(3, 2, vol3))


def test_lambda_scale_strict_morphism():
    lam = Fraction(2)
    Pa = GraphForm(3, 2, vol3)
    Pb = GraphForm(3, 2, vol3 * lam)
    Fa, Fb = ObservablesFamily(Pa), ObservablesFamily(Pb)
    tuples = [[random_observables_elem(rng, Fa) for _ in range(n)]
              for n in range(1, 4) for _ in range(5)]
    phi = lambda_scale_map(lam, Pb)
    assert all(morphism_residual(Fa, Fb, {1: phi}, t).is_zero()
               for t in tuples)
    for bad in (0.1, "2"):
        with pytest.raises(TypeError):
            lambda_scale_map(bad, Pb)


def test_gauge_strict_morphism():
    H = Form(ctx3, 3, {(1, 2, 3): random_poly(rng, ctx3, 1)})
    B = random_form(rng, ctx3, 2, max_deg=2)
    F1 = TwistedSectionsFamily(2, ctx3, H)
    F2 = TwistedSectionsFamily(2, ctx3, H + deRham(B))
    tuples = [[random_twisted_elem(rng, F1) for _ in range(n)]
              for n in range(1, 4) for _ in range(5)]
    assert all(morphism_residual(F1, F2, {1: gauge_map(B)}, t).is_zero()
               for t in tuples)


def test_unary_is_de_rham():
    F = TwistedSectionsFamily(3, ctx4, None)
    xi = random_form(rng, ctx4, 1, max_deg=1)
    got = F.l([F.form(-1, xi)])
    assert got.degree == 0
    assert got.payload == SectionEp(2, VField.zero(ctx4), deRham(xi))


def _draw(rng, F, degree):
    # a seeded nonzero element of F of the given degree
    sample = (random_observables_elem if isinstance(F, ObservablesFamily)
              else random_twisted_elem)
    while True:
        e = sample(rng, F)
        if e.degree == degree and not e.is_zero():
            return e


def test_check_relation_skips_vanishing_arities():
    # l_k above max_arity is zero by degree, so check_relation never
    # calls it; the relation at n = max_arity + 1 still holds.  A tuple
    # with a negative entry may call no l at all (every observables
    # bracket of arity >= 2 with a negative argument vanishes by degree),
    # so the all-degree-0 tuples must call some l
    def recording(family):
        class Recording(family):
            def l(self, args):
                self.arities.append(len(args))
                return super().l(args)
        return Recording

    local = random.Random(31)
    F_obs = recording(ObservablesFamily)(GraphForm(3, 2, vol3))
    F_tw = recording(TwistedSectionsFamily)(
        2, ctx3, Form(ctx3, 3, {(1, 2, 3): random_poly(local, ctx3, 1)}))
    for F, sample in ((F_obs, random_observables_elem),
                      (F_tw, random_twisted_elem)):
        n = F.max_arity + 1
        tuples = [[sample(local, F) for _ in range(n)] for _ in range(4)]
        tuples += [[_draw(local, F, 0) for _ in range(n)] for _ in range(2)]
        for elems in tuples:
            F.arities = []
            assert check_relation(F, elems).is_zero()
            if all(e.degree == 0 for e in elems):
                assert F.arities
            assert max(F.arities, default=0) <= F.max_arity
            assert F.l(elems).is_zero()


def _bracket_without_rule(F, args):
    # l on nonzero args with `vanishes` bypassed: the family's bracket
    # formula where it is defined, the graded oracle for twisted
    # arguments with two or more lower forms (up to its arity), and None
    # for an observables bracket with a lower-form argument, which is
    # zero by definition.  l_1 on degree 0 would land in degree 1.
    if len(args) == 1:
        return F._clamp(args[0].degree + 1, args[0].payload)
    negs = sum(a.degree < 0 for a in args)
    if isinstance(F, ObservablesFamily):
        return None if negs else F._bracket(args)
    if negs < 2:
        return F._bracket(args)
    if len(args) > ORACLE_MAX_ARITY:
        return None
    return oracle_bracket(F.r, F.ctx, [encode_element(F.r, a) for a in args],
                          F.H)


def test_vanishing_rule_is_sound():
    # every degree signature that `vanishes` declares zero has a zero
    # bracket on seeded draws, computed without the rule
    local = random.Random(61)
    families = [ObservablesFamily(GraphForm(n, n - 1, Form.basis(
        Context(n), tuple(range(1, n + 1))))) for n in (2, 3, 4)]
    for r in (1, 2, 3, 4):
        ctx = Context(r + 1)
        H = random_closed_form(local, ctx, r + 1)
        assert not H.is_zero()
        families.append(TwistedSectionsFamily(r, ctx, H))
    checked = 0
    for F in families:
        for n in range(1, F.max_arity + 2):
            for sig in itertools.combinations_with_replacement(
                    range(-F.depth, 1), n):
                sig = list(sig)
                local.shuffle(sig)
                if not F.vanishes(sig):
                    continue
                args = [_draw(local, F, d) for d in sig]
                got = _bracket_without_rule(F, args)
                if got is not None:
                    checked += 1
                    assert got.is_zero(), (type(F).__name__, F.depth, sig)
    assert checked >= 180, checked


def _tri_reference(xi, X1, X2, full):
    t = Fraction(1, 2) * (contract(X1, lie_derivative(X2, xi))
                          - contract(X2, lie_derivative(X1, xi)))
    t = t + contract(lie_bracket(X1, X2), xi)
    if full:
        t = t + contract(X1, contract(X2, deRham(xi)))
    return Fraction(-1, 6) * t


def _nary_form_reference(ctx, xi, Xs, full):
    # the pairwise body that the closed form of _nary_form replaced
    n = len(Xs) + 1
    coeff = (Fraction(12, (n - 1) * (n - 2)) * bernoulli(n - 1)
             * linfty._eps(n))
    acc = Form.zero(ctx)
    for i in range(len(Xs)):
        for j in range(i + 1, len(Xs)):
            t = _tri_reference(xi, Xs[i], Xs[j], full)
            for m in range(len(Xs)):
                if m not in (i, j):
                    t = contract(Xs[m], t)
            acc = acc + (-1 if (i + j) % 2 else 1) * t
    return coeff * acc


def test_nary_form_matches_the_pairwise_body():
    local = random.Random(62)
    nonzero = {2: 0, 3: 0, 4: 0}
    for k, full, dim, r in itertools.product((2, 3, 4), (False, True),
                                             (2, 3, 4, 5), (2, 3, 4)):
        ctx = Context(dim)
        F = TwistedSectionsFamily(r, ctx)
        for deg in (r - 1, local.randrange(r)):
            xi = random_form(local, ctx, deg, max_deg=2)
            Xs = [random_vfield(local, ctx, max_deg=1) for _ in range(k)]
            want = _nary_form_reference(ctx, xi, Xs, full)
            got = F._nary_form(xi, Xs, full)
            assert got == want and str(got) == str(want), (k, full, dim, r)
            nonzero[k] += not want.is_zero()
    assert nonzero[3] == 0 and nonzero[2] >= 30 and nonzero[4] >= 4, nonzero


def _set_partitions(items):
    # brute force: every set partition of the list ``items``
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


@pytest.mark.parametrize("sizes", [(1,), (2,), (1, 2), (1, 2, 3), (2, 3)])
def test_block_unshuffles_match_brute_force(sizes):
    for n in range(7):
        got = _block_unshuffles(tuple(range(n)), sizes)
        assert len(got) == len(set(got))
        for blocks in got:
            assert all(list(b) == sorted(b) and len(b) in sizes
                       for b in blocks)
            for b, c in zip(blocks, blocks[1:]):
                assert len(b) < len(c) or (len(b) == len(c) and b[0] < c[0])
        ref = {tuple(sorted((tuple(b) for b in part),
                            key=lambda b: (len(b), b[0])))
               for part in _set_partitions(list(range(n)))
               if all(len(b) in sizes for b in part)}
        assert set(got) == ref, (sizes, n)


def _prequantum_phis(dst, sigma, sign=1):
    return {1: lambda a: GradedElem(0, SectionEp(
                1, a.payload.X, sign * deRham(a.payload.alpha))),
            2: lambda a, b: dst.form(-1, prequantum_phi2(a.payload,
                                                         b.payload, sigma))}


def test_prequantum_morphism_engine_catches_wrong_maps(monkeypatch):
    # negative controls: each wrong map leaves a residual somewhere
    sigma = random_closed_form(rng, ctx3, 2)
    src = TwistedSectionsFamily(1, ctx3, sigma)
    dst = TwistedSectionsFamily(2, ctx3)
    graded = [[GradedElem(0, _rand_e0()) for _ in range(2)] for _ in range(6)]
    assert all(morphism_residual(src, dst, _prequantum_phis(dst, sigma),
                                 t).is_zero() for t in graded)
    # phi1 = (X, -df)
    wrong = _prequantum_phis(dst, sigma, sign=-1)
    assert any(not morphism_residual(src, dst, wrong, t).is_zero()
               for t in graded)
    # phi2 negated
    pairs = [(_rand_e0(), _rand_e0()) for _ in range(6)]
    triples = [tuple(_rand_e0() for _ in range(3)) for _ in range(6)]
    assert check_prequantum_morphism(sigma, pairs, triples)["status"] == "pass"
    phi2 = linfty.prequantum_phi2
    monkeypatch.setattr(linfty, "prequantum_phi2",
                        lambda e1, e2, s: -phi2(e1, e2, s))
    rep = check_prequantum_morphism(sigma, pairs, triples)
    assert rep["bracket_defect"]["witnesses"]


def test_prequantization_into_minus_omega_fails():
    P = GraphForm(2, 1, Form.basis(ctx2, (1, 2)))
    F = ObservablesFamily(P)
    bad = TwistedSectionsFamily(1, ctx2, -P.omega)
    pairs = [[F.element(Form.from_poly(random_poly(rng, ctx2, max_deg=3)))
              for _ in range(2)] for _ in range(10)]
    phi = {1: prequantization_map(P)}
    assert any(not morphism_residual(F, bad, phi, t).is_zero() for t in pairs)
