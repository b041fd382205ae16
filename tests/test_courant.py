import itertools as it
import random
from fractions import Fraction

from diracspace.poly import Context, Poly
from diracspace.calculus import (Form, MultiVec, contract, deRham,
                                 lie_bracket, lie_derivative, schouten,
                                 wedge)
from diracspace.courant import (SectionEp, SectionPr, courant, dorfman,
                                gauge, multi_bracket, multi_pairing,
                                mv_lie_derivative, pairing, scale)
from diracspace.sampling import (random_closed_form, random_form,
                                 random_multivec, random_poly,
                                 random_rational, random_vfield)

rng = random.Random(404)


def rand_sec(ctx, p):
    return SectionEp(p, random_vfield(rng, ctx), random_form(rng, ctx, p))


def test_dorfman_leibniz_and_anchor():
    for p, ctx in [(1, Context(3)), (2, Context(4))]:
        for _ in range(6):
            e1, e2, e3 = (rand_sec(ctx, p) for _ in range(3))
            # left Leibniz: [e1, [e2, e3]] = [[e1, e2], e3] + [e2, [e1, e3]]
            lhs = dorfman(e1, dorfman(e2, e3))
            rhs = dorfman(dorfman(e1, e2), e3) + dorfman(e2, dorfman(e1, e3))
            assert (lhs - rhs).is_zero()
            assert dorfman(e1, e2).X == lie_bracket(e1.X, e2.X)


def test_dorfman_symmetric_part_is_exact_pairing():
    ctx = Context(3)
    for p in (1, 2):
        for _ in range(6):
            e1, e2 = rand_sec(ctx, p), rand_sec(ctx, p)
            sym = dorfman(e1, e2) + dorfman(e2, e1)
            assert sym.X.is_zero()
            assert sym.alpha == deRham(pairing(e1, e2))


def test_courant_is_antisymmetrization():
    ctx = Context(3)
    for p in (1, 2):
        for _ in range(6):
            e1, e2 = rand_sec(ctx, p), rand_sec(ctx, p)
            twice = dorfman(e1, e2) - dorfman(e2, e1)
            assert courant(e1, e2) + courant(e2, e1) == SectionEp.zero(ctx, p)
            assert Fraction(2) * courant(e1, e2) == twice


def test_twisted_dorfman_leibniz():
    ctx = Context(3)
    H = Form(ctx, 3, {(1, 2, 3): random_poly(rng, ctx, 2)})
    assert deRham(H).is_zero()
    for _ in range(6):
        e1, e2, e3 = (rand_sec(ctx, 1) for _ in range(3))
        lhs = dorfman(e1, dorfman(e2, e3, H), H)
        rhs = dorfman(dorfman(e1, e2, H), e3, H) \
            + dorfman(e2, dorfman(e1, e3, H), H)
        assert (lhs - rhs).is_zero()


def test_gauge_intertwines_twists():
    ctx = Context(3)
    p = 1
    B = random_form(rng, ctx, p + 1, max_deg=2)
    H = Form(ctx, 3, {(1, 2, 3): random_poly(rng, ctx, 1)})
    for _ in range(6):
        e1, e2 = rand_sec(ctx, p), rand_sec(ctx, p)
        # e^{-B} carries the H-twisted bracket to the (H+dB)-twisted one
        lhs = gauge(dorfman(e1, e2, H), -B)
        rhs = dorfman(gauge(e1, -B), gauge(e2, -B), H + deRham(B))
        assert (lhs - rhs).is_zero()


def test_scale_rescales_bracket():
    ctx = Context(3)
    lam = Fraction(2)
    for _ in range(5):
        e1, e2 = rand_sec(ctx, 1), rand_sec(ctx, 1)
        # scaling only the form components commutes with the bracket
        assert scale(dorfman(e1, e2), lam) == dorfman(scale(e1, lam),
                                                      scale(e2, lam))


def test_tier11_matches_courant():
    for p, ctx in [(1, Context(3)), (2, Context(4)), (3, Context(4))]:
        for _ in range(4):
            e1, e2 = rand_sec(ctx, p), rand_sec(ctx, p)
            got = multi_bracket(SectionPr.from_section(e1),
                                SectionPr.from_section(e2))
            assert (got.to_section() - courant(e1, e2)).is_zero()


def test_multi_pairing_symmetry():
    ctx = Context(4)
    p = 3
    for r, s in [(1, 2), (2, 2), (1, 3)]:
        from diracspace.sampling import random_multivec
        a = SectionPr(p, r, random_multivec(rng, ctx, r),
                      random_form(rng, ctx, p + 1 - r))
        b = SectionPr(p, s, random_multivec(rng, ctx, s),
                      random_form(rng, ctx, p + 1 - s))
        sgn = -((-1) ** (r * s))
        assert multi_pairing(a, b) == sgn * multi_pairing(b, a)


def _rand_sY(ctx, S, r):
    # supported inside the involutive coordinate distribution S
    comps = {}
    for K in it.combinations(ctx.axes(), r):
        if set(K) <= set(S):
            comps[K] = random_poly(rng, ctx, 2, 1)
    return MultiVec(ctx, r, comps)


def _rand_omega_open(ctx, S, p):
    comps = {}
    for J in it.combinations(ctx.axes(), p + 1):
        if len(set(J) & set(S)) <= 2:
            exps = [0] * ctx.dim
            for i in ctx.axes():
                if i not in S:
                    exps[i - 1] = rng.randint(0, 2)
            comps[J] = Poly(ctx, {tuple(exps): random_rational(rng)})
        else:
            comps[J] = Poly.constant(ctx, random_rational(rng))
    return Form(ctx, p + 1, comps)


def test_tier_bracket_graph_anchor():
    """On graph sections Y + i_Y omega the tier bracket closes onto the
    Schouten bracket up to the d omega defect."""
    cases = [(3, 1, 1, 1, 2), (4, 2, 1, 2, 2), (4, 2, 2, 1, 2),
             (4, 3, 2, 2, 2), (4, 3, 1, 3, 3), (5, 3, 2, 3, 3),
             (5, 4, 2, 2, 3), (5, 4, 3, 2, 3), (4, 3, 2, 1, 2)]
    for (n, p, r, s, k) in cases:
        if r + s - 1 > p:
            continue
        ctx = Context(n)
        S = list(range(1, k + 1))
        for closed in (True, False):
            w = (random_closed_form(rng, ctx, p + 1) if closed
                 else _rand_omega_open(ctx, S, p))
            Y, Yb = _rand_sY(ctx, S, r), _rand_sY(ctx, S, s)
            a = SectionPr(p, r, Y, contract(Y, w))
            b = SectionPr(p, s, Yb, contract(Yb, w))
            got = multi_bracket(a, b)
            tau = (-1) ** ((r - 1) * (s - 1))
            want_mv = tau * schouten(Y, Yb)
            assert (got.Y - want_mv).is_zero()
            if r % 2 == 0 and s % 2 == 0:
                # the form identity needs an antisymmetric dw term that
                # no bracket of this shape produces when r, s are even
                continue
            want_f = tau * contract(schouten(Y, Yb), w) \
                + (-1) ** s * contract(Y, contract(Yb, deRham(w)))
            assert (got.eta - want_f).is_zero()


def test_tier11_graph_anchor_arbitrary_fields():
    # at r = s = 1 the graph identity needs no support assumptions
    for n, p in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        ctx = Context(n)
        for _ in range(4):
            w = random_form(rng, ctx, p + 1)
            Y = random_vfield(rng, ctx).to_multivec()
            Yb = random_vfield(rng, ctx).to_multivec()
            a = SectionPr(p, 1, Y, contract(Y, w))
            b = SectionPr(p, 1, Yb, contract(Yb, w))
            got = multi_bracket(a, b)
            want_mv = schouten(Y, Yb)
            want_f = contract(want_mv, w) \
                - contract(Y, contract(Yb, deRham(w)))
            assert (got.Y - want_mv).is_zero()
            assert (got.eta - want_f).is_zero()


def test_tier_bracket_conormal_anchor():
    """A multivector graph section against f * (closed conormal form)
    reduces to a contracted df wedge."""
    cases = [(4, 2, 1, 2, 2), (4, 3, 2, 2, 2), (5, 4, 2, 3, 2)]
    for (n, p, r, s, k) in cases:
        ctx = Context(n)
        S = list(range(1, k + 1))
        w = random_closed_form(rng, ctx, p + 1)
        Y = _rand_sY(ctx, S, r)
        a = SectionPr(p, r, Y, contract(Y, w))
        f = random_poly(rng, ctx)
        rest = [i for i in ctx.axes() if i not in S]
        J = tuple(rest[:p + 1 - s])
        if len(J) < p + 1 - s:
            continue
        al = Form.basis(ctx, J)
        b = SectionPr(p, s, MultiVec.zero(ctx, s), f * al)
        got = multi_bracket(a, b)
        want = contract(Y, wedge(deRham(Form.from_poly(f)), al))
        assert got.Y.is_zero()
        assert (got.eta - want).is_zero()


def test_twisted_tier11_matches_courant_with_twist():
    ctx = Context(3)
    H = Form(ctx, 3, {(1, 2, 3): random_poly(rng, ctx, 1)})
    for _ in range(5):
        e1, e2 = rand_sec(ctx, 1), rand_sec(ctx, 1)
        got = courant(e1, e2, H)
        untwisted = courant(e1, e2)
        assert got.X == untwisted.X
        assert got.alpha == untwisted.alpha \
            + contract(e2.X, contract(e1.X, H))


def test_mv_lie_derivative_of_a_wedge_with_a_field():
    """iota_{P^Z} = iota_Z iota_P for a field Z, so the graded commutator
    L_Y = [iota_Y, d] gives L_{P^Z} = iota_Z L_P + (-1)^q L_Z iota_P for
    P of degree q.  At q = 1 the right side is Cartan's alone, which
    pins the sign of the d iota_Y term in even degree."""
    local = random.Random(1717)
    ctx = Context(3)
    for trial in range(80):
        q = 1 if trial < 60 else 2
        P = (random_vfield(local, ctx) if q == 1
             else random_multivec(local, ctx, q))
        Z = random_vfield(local, ctx)
        eta = random_form(local, ctx, local.randint(0, 3))
        lp = (lie_derivative(P, eta) if q == 1
              else mv_lie_derivative(P, eta))
        want = (contract(Z, lp)
                + (-1) ** q * lie_derivative(Z, contract(P, eta)))
        assert mv_lie_derivative(wedge(P, Z), eta) == want


def test_pairings_match_their_two_contraction_bodies():
    # the bodies `pairing`, `multi_pairing` and the d-term of
    # `multi_bracket` had before they summed their contractions in one
    # pass, kept as references
    local = random.Random(2727)
    half = Fraction(1, 2)
    for _ in range(40):
        ctx = Context(local.randint(2, 4))
        p = local.randint(1, ctx.dim - 1)
        e1, e2 = (SectionEp(p, random_vfield(local, ctx, 1),
                            random_form(local, ctx, p, max_deg=1))
                  for _ in range(2))
        assert pairing(e1, e2) == (contract(e1.X, e2.alpha)
                                   + contract(e2.X, e1.alpha))
        r = local.randint(1, p)
        s = local.randint(1, p + 1 - r)
        a, b = (SectionPr(p, k, random_multivec(local, ctx, k, max_deg=1),
                          random_form(local, ctx, p + 1 - k, max_deg=1))
                for k in (r, s))
        sgn = (-1) ** (r * s)
        got = multi_pairing(a, b)
        assert got.degree == p + 1 - r - s
        assert got == half * (contract(b.Y, a.eta)
                              - sgn * contract(a.Y, b.eta))
        form = (mv_lie_derivative(a.Y, b.eta) - mv_lie_derivative(b.Y, a.eta)
                - Fraction((-1) ** s, 2)
                * deRham(contract(b.Y, a.eta) + sgn * contract(a.Y, b.eta)))
        assert multi_bracket(a, b).eta == form
