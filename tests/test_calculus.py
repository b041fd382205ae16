import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from diracspace.poly import Context, Poly, _product_sum
from diracspace.calculus import (Form, MultiVec, VField, _contract_idx,
                                 _sort_sign, _wedge_idx, const, contract,
                                 contract_sum, coords,
                                 deRham, iota_form, lie_bracket,
                                 lie_derivative, lie_derivative_direct,
                                 poincare_primitive, schouten, wedge)
from diracspace.sampling import (random_closed_form, random_form,
                                 random_multivec, random_poly, random_vfield)
from test_poly import _assert_canonical, _unpacked

rng = random.Random(202)


def test_wedge_graded_commutative_and_associative():
    ctx = Context(4)
    for _ in range(20):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        a = random_form(rng, ctx, p)
        b = random_form(rng, ctx, q)
        c = random_form(rng, ctx, 1)
        sgn = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == sgn * wedge(b, a)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_deRham_squares_to_zero_and_leibniz():
    ctx = Context(4)
    for _ in range(20):
        p = rng.randint(0, 2)
        a = random_form(rng, ctx, p, max_deg=2)
        b = random_form(rng, ctx, 1, max_deg=2)
        assert deRham(deRham(a)).is_zero()
        sgn = -1 if p % 2 else 1
        assert deRham(wedge(a, b)) == \
            wedge(deRham(a), b) + sgn * wedge(a, deRham(b))


def test_contract_antiderivation():
    ctx = Context(4)
    for _ in range(20):
        X = random_vfield(rng, ctx)
        p = rng.randint(1, 2)
        a = random_form(rng, ctx, p)
        b = random_form(rng, ctx, 2)
        sgn = -1 if p % 2 else 1
        assert contract(X, wedge(a, b)) == \
            wedge(contract(X, a), b) + sgn * wedge(a, contract(X, b))
        # i_X i_X = 0
        if p == 2:
            assert contract(X, contract(X, a)).is_zero()


def test_cartan_magic_formula():
    ctx = Context(3)
    for _ in range(20):
        X = random_vfield(rng, ctx, max_deg=2)
        a = random_form(rng, ctx, rng.randint(0, 2), max_deg=2)
        assert lie_derivative(X, a) == \
            contract(X, deRham(a)) + deRham(contract(X, a))
        assert lie_derivative(X, a) == lie_derivative_direct(X, a)


def test_deRham_is_kept_on_its_operand():
    # d of a value is computed once and kept on it; a copy built through
    # the public constructor carries none and gets the same d, and the
    # Cartan cross-check holds on forms whose d was already taken
    local = random.Random(203)
    ctx = Context(3)
    for k in (0, 1, 2, 3):
        for _ in range(3):
            a = random_form(local, ctx, k, max_deg=2)
            d = deRham(a)
            assert deRham(a) is d
            copy = Form(ctx, k, a.comps)
            assert copy == a and copy is not a
            assert deRham(copy) == d and str(deRham(copy)) == str(d)
            same = a + Form.zero(ctx, k)
            assert same is a and deRham(same) is d
            X = random_vfield(local, ctx, max_deg=2)
            assert lie_derivative(X, a) == lie_derivative_direct(X, a)
            assert lie_derivative(X, a) == lie_derivative_direct(X, copy)


def test_lie_bracket_via_derivative():
    ctx = Context(3)
    for _ in range(15):
        X = random_vfield(rng, ctx, max_deg=2)
        Y = random_vfield(rng, ctx, max_deg=2)
        a = random_form(rng, ctx, 1, max_deg=2)
        lhs = lie_derivative(lie_bracket(X, Y), a)
        rhs = lie_derivative(X, lie_derivative(Y, a)) \
            - lie_derivative(Y, lie_derivative(X, a))
        assert lhs == rhs


def test_schouten_properties():
    ctx = Context(4)
    for _ in range(10):
        p, q, r = (rng.randint(1, 3) for _ in range(3))
        P = random_multivec(rng, ctx, p)
        Q = random_multivec(rng, ctx, q)
        R = random_multivec(rng, ctx, r)
        assert (schouten(P, Q)
                + (-1) ** ((p - 1) * (q - 1)) * schouten(Q, P)).is_zero()
        assert schouten(P, wedge(Q, R)) == \
            wedge(schouten(P, Q), R) \
            + (-1) ** ((p - 1) * q) * wedge(Q, schouten(P, R))
        jac = schouten(P, schouten(Q, R)) - schouten(schouten(P, Q), R) \
            - (-1) ** ((p - 1) * (q - 1)) * schouten(Q, schouten(P, R))
        assert jac.is_zero()


def test_schouten_vfield_is_lie_derivative():
    ctx = Context(3)
    for _ in range(10):
        X = random_vfield(rng, ctx)
        P = random_multivec(rng, ctx, 2)
        a = random_form(rng, ctx, 2)
        lhs = contract(schouten(X.to_multivec(), P), a)
        rhs = lie_derivative(X, contract(P, a)) \
            - contract(P, lie_derivative(X, a))
        assert lhs == rhs


def test_iota_form_pairs_first_slots():
    ctx = Context(3)
    for _ in range(10):
        a = random_form(rng, ctx, 1)
        X1, X2 = random_vfield(rng, ctx), random_vfield(rng, ctx)
        dec = wedge(X1.to_multivec(), X2.to_multivec())
        # a 1-form eats the first slot of a decomposable bivector
        want = contract(X1, a).to_poly() * X2.to_multivec() \
            - contract(X2, a).to_poly() * X1.to_multivec()
        assert iota_form(a, dec) == want
        assert iota_form(a, dec).degree == 1


def test_poincare_primitive_inverts_d():
    ctx = Context(3)
    for _ in range(15):
        k = rng.randint(1, 3)
        a = random_closed_form(rng, ctx, k)
        assert deRham(poincare_primitive(a)) == a


def test_vfield_multivec_roundtrip():
    ctx = Context(3)
    for _ in range(10):
        X = random_vfield(rng, ctx, max_deg=2)
        assert X.to_multivec().to_vfield() == X


def test_form_zero_degree_matches_poly():
    ctx = Context(2)
    f = random_poly(rng, ctx, 2)
    a = Form.from_poly(f)
    assert a.degree == 0
    assert a.to_poly() == f


def test_constructor_checks_every_nonzero_component():
    ctx = Context(2)
    for kind in (Form, MultiVec):
        # whatever the degree, a nonzero component must fit it
        for degree, comps in ((3, {(1, 2, 3): 1}), (-1, {(1,): 1}),
                              (3, {(1, 2): 1}), (2, {(2, 1): 1}),
                              (1, {(0,): Fraction(1, 2)}),
                              (1, {(1,): Poly.variable(Context(3), 1)})):
            with pytest.raises(ValueError):
                kind(ctx, degree, comps)
        # an empty or all-zero map is the zero of any degree
        for degree in (-1, 0, 2, 3):
            for comps in (None, {}, {(1, 2, 3): 0, (1,): Poly.zero(ctx)}):
                zero = kind(ctx, degree, comps)
                assert zero.is_zero() and zero.degree == degree
                assert zero == kind.zero(ctx, 0)


def test_sort_sign_matches_brute_force():
    # every word of length n <= 5 over n letters: all permutations, and
    # words with repeated entries, under every parity mask of the letters
    for n in range(6):
        for word in itertools.product(range(n), repeat=n):
            for mask in range(2 ** n):
                def odd(x):
                    return mask >> x & 1

                odds = [x for x in word if odd(x)]
                if len(set(odds)) < len(odds):
                    want = (0, ())
                else:
                    inv = sum(1 for a, b in itertools.combinations(word, 2)
                              if a > b and odd(a) and odd(b))
                    want = ((-1) ** inv, tuple(sorted(word)))
                assert _sort_sign(word, odd) == want, (word, mask)
                if mask == 2 ** n - 1:
                    assert _sort_sign(word) == want, word


def test_contract_idx_matches_iterated_single_axis_contraction():
    # reference: take the axes of K out of I one at a time, each at
    # position t costing (-1)^t; K runs over unsorted words, with axes
    # that I lacks and axes outside the patch
    for n in range(6):
        for k in range(n + 1):
            for I in itertools.combinations(range(1, n + 1), k):
                for j in range(min(k + 1, 4) + 1):
                    for K in itertools.permutations(range(1, n + 2), j):
                        sign, rest = 1, I
                        for i in K:
                            if i not in rest:
                                sign, rest = 0, ()
                                break
                            t = rest.index(i)
                            sign *= (-1) ** t
                            rest = rest[:t] + rest[t + 1:]
                        assert _contract_idx(K, I) == (sign, rest), (K, I)
    # and through the public kernel: iota_{D1^...^Dj} = iota_Dj ... iota_D1
    ctx = Context(4)
    for I in itertools.combinations(ctx.axes(), 3):
        for K in itertools.combinations(ctx.axes(), 2):
            a = Form.basis(ctx, I)
            want = contract(VField.basis(ctx, K[1]),
                            contract(VField.basis(ctx, K[0]), a))
            assert contract(MultiVec.basis(ctx, K), a) == want, (K, I)


def test_vfield_equals_its_degree_one_multivec():
    ctx = Context(3)
    for i in ctx.axes():
        X, Y = VField.basis(ctx, i), MultiVec.basis(ctx, (i,))
        assert X == Y and Y == X and hash(X) == hash(Y)
        assert X != Form.basis(ctx, (i,)) and Y != Form.basis(ctx, (i,))
    assert MultiVec.zero(ctx, 1) != Form.zero(ctx, 1)
    local = random.Random(5)
    for _ in range(10):
        X = random_vfield(local, ctx)
        Y = X.to_multivec()
        assert type(Y) is MultiVec and Y == X and hash(Y) == hash(X)
        assert {Y: 1}[X] == 1
        assert X + Y == 2 * X == Y + X
        a = random_form(local, ctx, 2)
        assert contract(X, a) == contract(Y, a)


def test_mixed_kinds_are_refused():
    ctx = Context(3)
    dx1, dx2 = Form.basis(ctx, (1,)), Form.basis(ctx, (2,))
    Dx1, Dx2 = MultiVec.basis(ctx, (1,)), VField.basis(ctx, 2)
    x1 = Poly.variable(ctx, 1)
    for mixed in (lambda: dx1 + Dx1, lambda: Dx1 - dx1, lambda: Dx2 + dx2,
                  lambda: x1 + dx1, lambda: x1 - dx1, lambda: dx1 + x1,
                  lambda: x1 + Dx2, lambda: Dx2 - x1,
                  lambda: wedge(dx1, Dx2), lambda: wedge(Dx1, dx2),
                  lambda: contract(dx1, wedge(dx1, dx2)),
                  lambda: contract(Dx1, wedge(Dx1, Dx2)),
                  lambda: contract(wedge(dx1, dx2), Dx1),
                  lambda: iota_form(Dx1, wedge(Dx1, Dx2)),
                  lambda: iota_form(dx1, wedge(dx1, dx2)),
                  lambda: iota_form(wedge(Dx1, Dx2), dx1)):
        with pytest.raises(ValueError):
            mixed()


# -- the integer kernels against the per-Poly formulas ------------------
# The reference bodies below compose Poly operations component by
# component, the way contract, iota_form, deRham, lie_bracket and wedge
# were written before their loops accumulated int numerators.


def _ref_contract_axis(comps, i):
    out = {}
    for idx, c in comps.items():
        if i not in idx:
            continue
        t = idx.index(i)
        rest = idx[:t] + idx[t + 1:]
        sign = -1 if t % 2 else 1
        prev = out.get(rest)
        out[rest] = sign * c if prev is None else prev + sign * c
    return out


def _ref_contract_into(outer, inner, ctx):
    out = {}
    for K, c in outer.items():
        comps = inner
        for i in K:
            comps = _ref_contract_axis(comps, i)
        for idx, g in comps.items():
            out[idx] = out.get(idx, Poly.zero(ctx)) + c * g
    return out


def _ref_deRham(a):
    out = {}
    for idx, c in a.comps.items():
        for i in a.ctx.axes():
            dc = c.partial(i)
            sign, merged = _sort_sign((i,) + idx)
            if sign and not dc.is_zero():
                out[merged] = out.get(merged, Poly.zero(a.ctx)) + sign * dc
    return out


def _ref_apply(X, f):
    out = Poly.zero(f.ctx)
    for (i,), c in X.comps.items():
        out = out + c * f.partial(i)
    return out


def _ref_lie_bracket(X, Y):
    zero = Poly.zero(X.ctx)
    return {(j,): _ref_apply(X, Y.comps.get((j,), zero))
            - _ref_apply(Y, X.comps.get((j,), zero)) for j in X.ctx.axes()}


def _ref_wedge(a, b):
    out = {}
    for I, f in a.comps.items():
        for J, g in b.comps.items():
            sign, idx = _sort_sign(I + J)
            if sign:
                out[idx] = out.get(idx, Poly.zero(a.ctx)) + sign * (f * g)
    return out


def _kernel_poly(local, ctx):
    """0-3 terms of degree <= 2, denominators from 1, 2, 3 and 6."""
    exps = [e for e in itertools.product(range(3), repeat=ctx.dim)
            if sum(e) <= 2]
    terms = {}
    for _ in range(local.randint(0, 3)):
        terms[local.choice(exps)] = Fraction(local.randint(-4, 4),
                                             local.choice((1, 2, 3, 6)))
    return Poly(ctx, terms)


def _kernel_comps(local, ctx, degree):
    """About half the components drawn, the others zero."""
    return {idx: _kernel_poly(local, ctx)
            for idx in itertools.combinations(ctx.axes(), degree)
            if local.random() < 0.5}


def _assert_kernel_result(got, degree, want):
    assert got.degree == degree
    assert got.comps == {i: c for i, c in want.items() if not c.is_zero()}
    for idx, c in got.comps.items():
        assert type(idx) is tuple and len(idx) == degree
        assert all(a < b for a, b in zip(idx, idx[1:]))
        assert not idx or 1 <= idx[0] and idx[-1] <= got.ctx.dim
        assert not c.is_zero()
        _assert_canonical(c)
    # the flat store: nonzero int numerators over a content-free den,
    # keyed by (index tuple, packed exponents)
    num, den = got._num, got._den
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in num.values())
    assert gcd(den, *num.values()) == 1
    for idx, e in num:
        assert type(idx) is tuple and len(idx) == degree
        assert all(type(i) is int for i in idx)
        assert all(a < b for a, b in zip(idx, idx[1:]))
        assert not idx or 1 <= idx[0] and idx[-1] <= got.ctx.dim
    assert list(zip([i for i, _ in num], _unpacked(
        got.ctx, [e for _, e in num]))) == list(got.terms)
    if type(got) is VField:
        rebuilt = VField(got.ctx, {i: c for (i,), c in got.comps.items()})
    else:
        rebuilt = type(got)(got.ctx, degree, got.comps)
    assert rebuilt == got and str(rebuilt) == str(got)


def test_kernels_match_per_poly_reference():
    local = random.Random(8128)
    for _ in range(600):
        ctx = Context(local.randint(1, 5))
        n = ctx.dim
        p, q = local.randint(0, n), local.randint(0, n)
        a = Form(ctx, p, _kernel_comps(local, ctx, p))
        b = Form(ctx, q, _kernel_comps(local, ctx, q))
        X = VField(ctx, {i: _kernel_poly(local, ctx) for i in ctx.axes()
                         if local.random() < 0.7})
        Z = VField(ctx, {i: _kernel_poly(local, ctx) for i in ctx.axes()
                         if local.random() < 0.7})
        r = local.randint(0, p)
        Y = MultiVec(ctx, r, _kernel_comps(local, ctx, r))
        pi = MultiVec(ctx, q, b.comps)
        al = Form(ctx, r, Y.comps)

        _assert_kernel_result(contract(X, a), p - 1,
                              _ref_contract_into(X.comps, a.comps, ctx))
        _assert_kernel_result(contract(Y, a), p - r,
                              _ref_contract_into(Y.comps, a.comps, ctx))
        if r <= q:
            _assert_kernel_result(iota_form(al, pi), q - r,
                                  _ref_contract_into(al.comps, pi.comps,
                                                     ctx))
        if p < n:
            _assert_kernel_result(deRham(a), p + 1, _ref_deRham(a))
        _assert_kernel_result(lie_bracket(X, Z), 1, _ref_lie_bracket(X, Z))
        if p + q <= n:
            _assert_kernel_result(wedge(a, b), p + q, _ref_wedge(a, b))
            _assert_kernel_result(wedge(Y, pi), r + q, _ref_wedge(Y, pi))

        # cancellations, across sums and inside one kernel call
        for zero in (a - a, contract(X, a) + contract(-X, a),
                     contract(X, contract(X, a)) if p else a - a,
                     lie_bracket(X, X), wedge(X, X),
                     deRham(deRham(a)) if p + 2 <= n else a - a,
                     (a - a) * _kernel_poly(local, ctx), 0 * a,
                     Fraction(1, 6) * a - a * Fraction(1, 6)):
            assert zero.is_zero() and zero.comps == {}
        for s in (a + b if p == q else a + a, -a, Fraction(-5, 6) * a,
                  a * _kernel_poly(local, ctx)):
            _assert_kernel_result(s, s.degree, s.comps)


# -- schouten and poincare_primitive against their per-term bodies -------
# The references build the objects the kernels no longer build: a VField
# per wedge factor, a lie_bracket and a wedge chain per pair of factors
# for schouten, and one Form and one contraction per term for the
# primitive.


def _ref_schouten(P, Q):
    ctx = P.ctx
    out = MultiVec.zero(ctx, P.degree + Q.degree - 1)
    for K, f in P.comps.items():
        xs = [VField(ctx, {K[0]: f})] + [VField.basis(ctx, k) for k in K[1:]]
        for M, g in Q.comps.items():
            ys = [VField(ctx, {M[0]: g})] + [VField.basis(ctx, m)
                                             for m in M[1:]]
            for i in range(len(xs)):
                for j in range(len(ys)):
                    rest = lie_bracket(xs[i], ys[j])
                    if rest.is_zero():
                        continue
                    for t, v in enumerate(xs):
                        if t != i:
                            rest = wedge(rest, v)
                    for t, v in enumerate(ys):
                        if t != j:
                            rest = wedge(rest, v)
                    out = out + (-1) ** (i + j) * rest
    return out


def _ref_poincare_primitive(a):
    ctx = a.ctx
    E = VField(ctx, {i: Poly.variable(ctx, i) for i in ctx.axes()})
    out = Form.zero(ctx, a.degree - 1)
    for idx, poly in a.comps.items():
        for e, c in poly.terms.items():
            piece = Form(ctx, a.degree, {idx: Poly(ctx, {e: c})})
            out = out + Fraction(1, sum(e) + a.degree) * contract(E, piece)
    return out


def test_schouten_matches_per_factor_reference():
    # every degree pair on dims 1-5, p + q - 1 > n included
    local = random.Random(4093)
    for _ in range(10):
        for n in range(1, 6):
            ctx = Context(n)
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    P = MultiVec(ctx, p, _kernel_comps(local, ctx, p))
                    Q = MultiVec(ctx, q, _kernel_comps(local, ctx, q))
                    got, want = schouten(P, Q), _ref_schouten(P, Q)
                    assert got == want and str(got) == str(want), (P, Q)
                    _assert_kernel_result(got, p + q - 1, want.comps)


def test_poincare_primitive_matches_per_term_reference():
    # closed and non-closed forms of every degree on dims 1-5
    local = random.Random(3571)
    for _ in range(10):
        for n in range(1, 6):
            ctx = Context(n)
            for k in range(1, n + 1):
                for a in (Form(ctx, k, _kernel_comps(local, ctx, k)),
                          random_closed_form(local, ctx, k)):
                    got = poincare_primitive(a)
                    want = _ref_poincare_primitive(a)
                    assert got == want and str(got) == str(want), a
                    _assert_kernel_result(got, k - 1, want.comps)


def test_as_degree_keeps_a_value_or_moves_a_zero():
    ctx = Context(3)
    w = random_form(rng, ctx, 2)
    assert w.as_degree(2, "w") is w
    with pytest.raises(ValueError, match="^w has degree 2, expected 1$"):
        w.as_degree(1, "w")
    # a zero of any degree is the zero of the asked degree, of its kind
    for zero, kind in ((Form.zero(ctx, 5), Form),
                       (MultiVec.zero(ctx, 0), MultiVec),
                       (VField.zero(ctx), MultiVec)):
        got = zero.as_degree(2, "zero")
        assert type(got) is kind and got.degree == 2 and got.is_zero()
    assert type(VField.zero(ctx).as_degree(1, "X")) is VField


def test_constant_coordinates_round_trip():
    ctx = Context(4)
    for cls in (Form, MultiVec):
        for k in range(5):
            vals = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in itertools.combinations(ctx.axes(), k)]
            a = const(cls, ctx, k, vals)
            assert a == cls(ctx, k, dict(zip(
                itertools.combinations(ctx.axes(), k), vals)))
            assert a.is_constant() and coords(a) == vals
    x1 = Poly.variable(ctx, 1)
    bent = Form(ctx, 1, {(2,): x1 + Poly.constant(ctx, 1)})
    assert not bent.is_constant()
    with pytest.raises(ValueError):
        coords(bent)


def test_const_refuses_a_coordinate_list_of_the_wrong_length():
    from diracspace.lagrangian import const_vfield
    ctx2, ctx3 = Context(2), Context(3)
    for build in (lambda: const(Form, ctx2, 1, [1, 2, 3]),
                  lambda: const(Form, ctx2, 1, [5]),
                  lambda: const(MultiVec, ctx3, 2, [1, 2]),
                  lambda: const(Form, ctx3, 0, []),
                  lambda: const_vfield(ctx3, [1, 2]),
                  lambda: const_vfield(ctx3, [1, 2, 3, 4])):
        with pytest.raises(ValueError, match="coordinates for the"):
            build()
    assert const(Form, ctx2, 1, [1, 2]) == Form(ctx2, 1, {
        (1,): Poly.constant(ctx2, 1), (2,): Poly.constant(ctx2, 2)})
    assert str(const_vfield(ctx3, [1, 0, 2])) == str(
        const(VField, ctx3, 1, (1, 0, 2)))


def test_exponent_ceiling_in_wedge_bracket_and_primitive():
    # 32767 is the largest exponent a result may carry; one more raises
    # ValueError instead of wrapping into the next variable's field
    ctx = Context(2)

    def x1(k):
        return Poly(ctx, {(k, 0): 1})

    dx2 = Form.basis(ctx, (2,))
    assert wedge(Form.from_poly(x1(32766)), x1(1) * dx2) == x1(32767) * dx2
    assert x1(32766) * (x1(1) * dx2) == x1(32767) * dx2
    with pytest.raises(ValueError, match="above 32767"):
        wedge(Form.from_poly(x1(32767)), x1(1) * dx2)
    with pytest.raises(ValueError, match="above 32767"):
        x1(32767) * (x1(1) * dx2)
    X = VField(ctx, {1: x1(32767)})
    assert lie_bracket(X, VField(ctx, {1: x1(1)})) == VField(
        ctx, {1: -32766 * x1(32767)})
    with pytest.raises(ValueError, match="above 32767"):
        lie_bracket(X, VField(ctx, {1: x1(2)}))
    dx1 = Form.basis(ctx, (1,))
    prim = poincare_primitive(x1(32766) * dx1)
    assert prim == Form.from_poly(Fraction(1, 32767) * x1(32767))
    assert deRham(prim) == x1(32766) * dx1
    with pytest.raises(ValueError, match="above 32767"):
        poincare_primitive(x1(32767) * dx1)


# -- sums of contractions in one pass ----------------------------------
# The reference builds what `contract_sum` does not: one contraction per
# part, then the sum and the scalar multiple.


def _ref_contract_sum(ctx, degree, parts, div=1):
    out = Form.zero(ctx, degree)
    for c, Y, a in parts:
        out = out + c * contract(Y, a)
    return out * Fraction(1, div)


def _sum_operand(local, draw, ctx, degree):
    """A random operand of ``degree``: sometimes zero, and otherwise
    over a denominator drawn apart from the sampler's."""
    a = draw(local, ctx, degree, max_deg=1)
    if local.random() < 0.15:
        return a.zero(ctx, degree)
    return a * Fraction(1, local.choice((1, 5, 7, 10)))


def test_contract_sum_matches_contract_per_part():
    local = random.Random(2525)
    for _ in range(300):
        ctx = Context(local.randint(1, 4))
        n = ctx.dim
        degree = local.randint(0, n - 1)
        parts = []
        for _ in range(local.randint(0, 3)):
            q = local.randint(1, min(3, n - degree))
            parts.append((local.randint(-3, 3),
                          _sum_operand(local, random_multivec, ctx, q),
                          _sum_operand(local, random_form, ctx, q + degree)))
        div = local.choice((1, 2))
        got = contract_sum(ctx, degree, parts, div)
        want = _ref_contract_sum(ctx, degree, parts, div)
        _assert_kernel_result(got, degree, want.comps)
        assert Form._raw(ctx, degree, *_product_sum(
            parts, _contract_idx, ctx, div)) == want
        # the same loop under the wedge rule, on forms
        k = local.randint(0, n)
        l = local.randint(0, n - k)
        parts = [(local.randint(-3, 3),
                  _sum_operand(local, random_form, ctx, k),
                  _sum_operand(local, random_form, ctx, l))
                 for _ in range(local.randint(0, 3))]
        want = Form.zero(ctx, k + l)
        for c, a, b in parts:
            want = want + c * wedge(a, b)
        assert Form._raw(ctx, k + l, *_product_sum(
            parts, _wedge_idx, ctx, div)) == want * Fraction(1, div)


def test_contract_sum_edge_cases():
    ctx = Context(3)
    local = random.Random(2626)
    Y1 = random_multivec(local, ctx, 1)
    Y2 = random_multivec(local, ctx, 2)
    a1, a2 = random_form(local, ctx, 1), random_form(local, ctx, 2)
    # no parts, and parts that are all zero, give the zero of the degree
    for parts in ([], [(0, Y1, a2)], [(3, MultiVec.zero(ctx, 1), a2)],
                  [(1, Y1, a2), (-1, Y1, a2)]):
        got = contract_sum(ctx, 1, parts, 2)
        assert got.is_zero() and got.degree == 1 and got._den == 1
    # a negative result degree gives the zero form of that degree
    got = contract_sum(ctx, -1, [(1, Y2, a1), (-2, Y2, a1)])
    assert got.is_zero() and got.degree == -1
    assert contract(Y2, a1).degree == -1
    # a nonzero part of another degree is refused
    with pytest.raises(ValueError, match="degree"):
        contract_sum(ctx, 0, [(1, Y1, a1), (1, Y1, a2)])
    with pytest.raises(ValueError, match="expected a MultiVec and a Form"):
        contract_sum(ctx, 0, [(1, a1, Y1)])
    with pytest.raises(ValueError, match="context mismatch"):
        contract_sum(Context(4), 0, [(1, Y1, a1)])
    # an exponent sum past the ceiling still raises
    ctx2 = Context(2)
    x1 = Poly(ctx2, {(32767, 0): 1})
    big = MultiVec(ctx2, 1, {(1,): x1})
    dx1 = Form(ctx2, 1, {(1,): Poly(ctx2, {(1, 0): 1})})
    with pytest.raises(ValueError, match="above 32767"):
        contract(big, dx1)
    with pytest.raises(ValueError, match="above 32767"):
        contract_sum(ctx2, 0, [(1, big, dx1)], 2)
    with pytest.raises(ValueError, match="above 32767"):
        contract_sum(ctx2, 0, [(1, MultiVec.basis(ctx2, (1,)), dx1),
                               (-1, big, dx1)])
