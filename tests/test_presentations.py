import random
from fractions import Fraction

import pytest

from diracspace.poly import Context, Poly
from diracspace.calculus import (Form, MultiVec, VField, contract, deRham,
                                 lie_bracket, schouten)
from diracspace.courant import SectionEp, dorfman
from diracspace.presentations import (GraphForm, GraphMultivector,
                                      HamiltonianDatum, Regular, ScaledTop,
                                      ham_bracket, hamiltonian_solve,
                                      hamiltonian_verify)
from diracspace.sampling import (random_closed_form, random_form,
                                 random_poly, random_vfield)

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
