import itertools
import random
from fractions import Fraction

import pytest

from diracspace.poly import Context, Poly
from diracspace.calculus import (Form, MultiVec, VField, contract, deRham,
                                 lie_bracket, schouten)
from diracspace.courant import SectionEp, dorfman
from diracspace.presentations import (GraphForm, GraphMultivector,
                                      HamiltonianDatum, Presentation,
                                      Regular, ScaledTop, ham_bracket,
                                      hamiltonian_solve, hamiltonian_verify)
from diracspace.sampling import (random_closed_form, random_constant_form,
                                 random_form, random_poly, random_vfield)

rng = random.Random(606)

ctx2 = Context(2)
ctx3 = Context(3)
ctx4 = Context(4)
ctx5 = Context(5)


def test_graph_form_closed_passes():
    w = random_closed_form(rng, ctx3, 2)
    P = GraphForm(3, 1, w)
    assert P.verify_isotropic()["status"] == "pass"
    assert P.verify_involutive()["status"] == "pass"
    g = P.generators()
    assert all(P.member(dorfman(a, b)) for a in g for b in g)


def test_graph_form_open_fails_involutivity_with_witness():
    w = Form(ctx3, 2, {(1, 2): Poly.variable(ctx3, 3)})
    rep = GraphForm(3, 1, w).verify_involutive()
    assert rep["status"] == "fail"
    assert rep["witnesses"]


def test_graph_form_membership():
    w = random_closed_form(rng, ctx3, 2)
    P = GraphForm(3, 1, w)
    X = random_vfield(rng, ctx3)
    assert P.member(SectionEp(1, X, -contract(X, w)))


def test_graph_multivector_fixtures():
    top = MultiVec.basis(ctx3, (1, 2, 3))
    PM = GraphMultivector(3, 2, top)
    assert PM.verify_isotropic()["status"] == "pass"
    assert PM.verify_involutive()["status"] == "pass"
    poisson = MultiVec.basis(ctx3, (1, 2))
    PB = GraphMultivector(3, 1, poisson)
    assert PB.verify_involutive()["status"] == "pass"
    bad = MultiVec(ctx3, 2, {(1, 2): Poly.variable(ctx3, 1),
                             (1, 3): Poly.constant(ctx3, 1)})
    assert not schouten(bad, bad).is_zero()
    assert GraphMultivector(3, 1, bad).verify_involutive()["status"] == "fail"


def test_regular_fixtures():
    good = Regular(4, 2, [1, 2], Form.basis(ctx4, (1, 2, 3)))
    assert good.verify_isotropic()["status"] == "pass"
    assert good.verify_involutive()["status"] == "pass"
    # d omega restricted against the distribution is nonzero here
    om5 = Form(ctx5, 3, {(2, 3, 4): Poly.variable(ctx5, 1)})
    bad = Regular(5, 2, [1, 2, 3], om5)
    rep = bad.verify_involutive()
    assert rep["status"] == "fail" and rep["witnesses"]


def test_scaled_top_fixture():
    ST = ScaledTop(3, Poly.variable(ctx3, 1), Form.basis(ctx3, (1, 2, 3)))
    assert ST.verify_isotropic()["status"] == "pass"
    assert ST.verify_involutive()["status"] == "pass"
    e_in = SectionEp(2, Poly.variable(ctx3, 1) * VField.basis(ctx3, 2),
                     -contract(VField.basis(ctx3, 2),
                               Form.basis(ctx3, (1, 2, 3))))
    e_out = SectionEp(2, VField.basis(ctx3, 2), Form.zero(ctx3, 2))
    assert ST.member(e_in)
    assert not ST.member(e_out)


def test_symplectic_poisson_bracket():
    P = GraphForm(2, 1, Form.basis(ctx2, (1, 2)))
    f = random_poly(rng, ctx2)
    g = random_poly(rng, ctx2)
    Xf = hamiltonian_solve(P, Form.from_poly(f))
    Xg = hamiltonian_solve(P, Form.from_poly(g))
    assert hamiltonian_verify(P, Form.from_poly(f), Xf)
    br = ham_bracket(HamiltonianDatum(P, Form.from_poly(f), Xf),
                     HamiltonianDatum(P, Form.from_poly(g), Xg)).to_poly()
    classical = f.partial(1) * g.partial(2) - f.partial(2) * g.partial(1)
    assert br == classical or br == -classical


def test_hamiltonian_solve_volume_form():
    P = GraphForm(3, 2, Form.basis(ctx3, (1, 2, 3)))
    al = Form(ctx3, 1, {(2,): Poly.variable(ctx3, 1)})
    X = hamiltonian_solve(P, al)
    assert X is not None and hamiltonian_verify(P, al, X)
    assert hamiltonian_solve(P, Form.zero(ctx3, 1)) == VField.zero(ctx3)


def test_bracket_well_defined_under_kernel_shift():
    # omega with kernel: the bracket must not see the choice of X
    P = GraphForm(4, 2, Form.basis(ctx4, (1, 2, 3)))
    assert hamiltonian_verify(P, Form.zero(ctx4, 1), VField.basis(ctx4, 4))
    beta = Form(ctx4, 1, {(4,): Poly.variable(ctx4, 1),
                          (1,): Poly.variable(ctx4, 4)})
    Xb = hamiltonian_solve(P, beta)
    assert Xb is not None
    d1 = HamiltonianDatum(P, Form.zero(ctx4, 1), VField.basis(ctx4, 4))
    d2 = HamiltonianDatum(P, Form.zero(ctx4, 1), VField.zero(ctx4))
    db = HamiltonianDatum(P, beta, Xb)
    assert ham_bracket(d1, db) == ham_bracket(d2, db)


def _rand_ham(P):
    al = random_form(rng, P.ctx, P.p - 1)
    X = hamiltonian_solve(P, al)
    assert X is not None
    return HamiltonianDatum(P, al, X)


def test_bracket_antisymmetry_and_jacobiator():
    P = GraphForm(3, 2, Form.basis(ctx3, (1, 2, 3)))

    def hb(x, y):
        f = ham_bracket(x, y)
        return HamiltonianDatum(P, f, hamiltonian_solve(P, f))

    for _ in range(5):
        a, b, c = (_rand_ham(P) for _ in range(3))
        assert (ham_bracket(a, b) + ham_bracket(b, a)).is_zero()
        # graph sections close under Dorfman onto the bracket
        e1 = SectionEp(2, a.X, deRham(a.alpha))
        e2 = SectionEp(2, b.X, deRham(b.alpha))
        got = dorfman(e1, e2)
        assert got.X == lie_bracket(a.X, b.X)
        assert got.alpha == deRham(ham_bracket(a, b))
        # the Jacobiator is the exact term -d i_{X_a} {b, c}
        lhs = ham_bracket(a, hb(b, c)) + ham_bracket(b, hb(c, a)) \
            + ham_bracket(c, hb(a, b))
        assert lhs == -deRham(contract(a.X, ham_bracket(b, c)))


def test_hamiltonian_solve_rejects_nonconstant_coefficients():
    w = Form(ctx3, 3, {(1, 2, 3): Poly.constant(ctx3, 1)
                       + Poly.variable(ctx3, 1)})
    P = GraphForm(3, 2, w)
    with pytest.raises(ValueError):
        hamiltonian_solve(P, random_form(rng, ctx3, 1))


def test_sums_and_multiples_of_data_stay_hamiltonian():
    # HamiltonianDatum arithmetic skips hamiltonian_verify because
    # membership in L is linear; this checks that property directly
    local = random.Random(4711)
    presentations = [
        GraphForm(3, 2, Form.basis(ctx3, (1, 2, 3))),
        GraphForm(4, 1, Form(ctx4, 2, {(1, 2): Poly.constant(ctx4, 1),
                                       (3, 4): Poly.constant(ctx4, 2)})),
        Regular(4, 2, [1, 2], Form.basis(ctx4, (1, 2, 3))),
        Regular(5, 2, [1, 2, 3], Form.basis(ctx5, (1, 2, 3))),
    ]
    for P in presentations:
        data = []
        while len(data) < 6:
            al = random_form(local, P.ctx, P.p - 1, max_deg=local.randint(0, 2))
            X = hamiltonian_solve(P, al)
            if X is not None:
                data.append(HamiltonianDatum(P, al, X))
        for a, b in zip(data, data[1:]):
            c = Fraction(local.randint(-9, 9), local.choice((1, 2, 3, 6)))
            for s in (a + b, -a, c * a, a * c, a + (-a)):
                assert hamiltonian_verify(P, s.alpha, s.X)
                assert s.alpha.degree == P.p - 1
                assert s.X.ctx == P.ctx and s.P is P


def test_involutivity_overrides_match_dorfman_closure():
    # GraphForm and Regular answer with the closedness criterion on
    # d omega; the base Presentation.verify_involutive closes the
    # generators under the Dorfman bracket instead
    local = random.Random(616)
    verdicts = {GraphForm: set(), Regular: set()}
    for n in (3, 4, 5):
        ctx = Context(n)
        for p in (1, 2):
            for omega in (random_closed_form(local, ctx, p + 1),
                          random_form(local, ctx, p + 1, max_deg=1)):
                cases = [GraphForm(n, p, omega)]
                for k in list(range(n - p + 1)) + [n]:
                    S = local.sample(range(1, n + 1), k)
                    cases.append(Regular(n, p, S, omega))
                for P in cases:
                    fast = P.verify_involutive()["status"]
                    assert fast == Presentation.verify_involutive(P)["status"]
                    verdicts[type(P)].add(fast)
    assert verdicts == {GraphForm: {"pass", "fail"},
                        Regular: {"pass", "fail"}}


def test_graph_form_is_regular_over_every_axis():
    # GraphForm is Regular with S = TM: same generators, same membership,
    # same Hamiltonian vector fields and the same isotropy verdict
    local = random.Random(626)
    members = {True: 0, False: 0}
    for n in range(2, 6):
        ctx = Context(n)
        for p in range(1, min(3, n - 1) + 1):
            for omega in (random_constant_form(local, ctx, p + 1),
                          random_closed_form(local, ctx, p + 1),
                          random_form(local, ctx, p + 1, max_deg=1)):
                G = GraphForm(n, p, omega)
                R = Regular(n, p, range(1, n + 1), omega)
                gens = G.generators()
                assert gens == R.generators()
                for _ in range(4):
                    e = SectionEp(p, VField.zero(ctx), Form.zero(ctx, p))
                    for g in gens:
                        e = e + g * random_poly(local, ctx, 1, n_terms=1)
                    if local.random() < 0.5:
                        e = e + SectionEp(p, VField.zero(ctx),
                                          random_form(local, ctx, p, 1))
                    verdict = G.member(e)
                    assert verdict == R.member(e)
                    members[verdict] += 1
                if all(c.is_constant() for c in omega.comps.values()):
                    for _ in range(3):
                        al = random_form(local, ctx, p - 1, max_deg=2)
                        assert hamiltonian_solve(G, al) == \
                            hamiltonian_solve(R, al)
                assert G.verify_isotropic() == R.verify_isotropic()
    assert members[True] > 0 and members[False] > 0


def test_regular_form_is_not_unique():
    # Regular(S, omega) and Regular(S, omega + beta) present the same
    # subbundle exactly when every component of beta has at most one
    # S index; the presented subbundle then has one involutivity verdict
    local = random.Random(636)
    verdicts = set()
    for n in (3, 4, 5):
        ctx = Context(n)
        for p in (1, 2):
            tuples = list(itertools.combinations(ctx.axes(), p + 1))
            for k in list(range(1, n - p + 1)) + [n]:
                S = sorted(local.sample(range(1, n + 1), k))
                omega = random_form(local, ctx, p + 1, max_deg=1)
                for low in (True, False):
                    pool = [idx for idx in tuples if not low
                            or sum(1 for i in idx if i in S) <= 1]
                    picked = local.sample(pool, min(len(pool), 2))
                    beta = Form(ctx, p + 1, {
                        idx: random_poly(local, ctx, 1, n_terms=2)
                        for idx in picked})
                    A = Regular(n, p, S, omega)
                    B = Regular(n, p, S, omega + beta)
                    want = all(sum(1 for i in idx if i in S) <= 1
                               for idx in beta.comps)
                    a_in_b = all(B.member(g) for g in A.generators())
                    b_in_a = all(A.member(g) for g in B.generators())
                    assert a_in_b == b_in_a == want, (n, p, S, beta)
                    if want:
                        assert (A.verify_involutive()["status"]
                                == B.verify_involutive()["status"])
                    verdicts.add(want)
    assert verdicts == {True, False}
