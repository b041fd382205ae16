import random
from fractions import Fraction

import pytest

from diracspace.poly import Context, Poly, bernoulli
from diracspace.sampling import random_poly

rng = random.Random(101)


def test_bernoulli_values():
    want = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
            3: Fraction(0), 4: Fraction(-1, 30), 6: Fraction(1, 42),
            8: Fraction(-1, 30), 10: Fraction(5, 66)}
    for k, v in want.items():
        assert bernoulli(k) == v
    for k in (3, 5, 7, 9, 11):
        assert bernoulli(k) == 0


def test_ring_axioms():
    ctx = Context(3)
    for _ in range(40):
        a = random_poly(rng, ctx, 3)
        b = random_poly(rng, ctx, 3)
        c = random_poly(rng, ctx, 2)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * Poly.constant(ctx, 1) == a
        assert (a * Poly.zero(ctx)).is_zero()


def test_partial_leibniz_and_commutes():
    ctx = Context(3)
    for _ in range(25):
        a = random_poly(rng, ctx, 3)
        b = random_poly(rng, ctx, 3)
        for i in ctx.axes():
            assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
        assert a.partial(1).partial(2) == a.partial(2).partial(1)


def test_variable_and_constant():
    ctx = Context(2)
    x1 = Poly.variable(ctx, 1)
    assert x1.partial(1) == Poly.constant(ctx, 1)
    assert x1.partial(2).is_zero()
    c = Poly.constant(ctx, Fraction(5, 3))
    assert c.is_constant() and c.constant_value() == Fraction(5, 3)


def test_divide_exact():
    ctx = Context(2)
    for _ in range(20):
        a = random_poly(rng, ctx, 2)
        b = random_poly(rng, ctx, 2)
        if b.is_zero():
            continue
        assert (a * b).divide_exact(b) == a


def test_context_mismatch_rejected():
    a = Poly.variable(Context(2), 1)
    b = Poly.variable(Context(3), 1)
    with pytest.raises(ValueError):
        a + b


def test_str_roundtrip_stability():
    ctx = Context(3)
    for _ in range(10):
        a = random_poly(rng, ctx, 2)
        assert str(a) == str(Poly(ctx, a.terms))


def _assert_canonical(p: Poly):
    dim = p.ctx.dim
    for exp, c in p.terms.items():
        assert type(exp) is tuple and len(exp) == dim
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) is Fraction and c != 0
    rebuilt = Poly(p.ctx, dict(p.terms))
    assert p == rebuilt and str(p) == str(rebuilt)


def test_internal_results_are_canonical():
    local = random.Random(2718)
    scalars = [0, 1, -1, 3, Fraction(0), Fraction(1), Fraction(-1),
               Fraction(-5, 7)]
    for _ in range(60):
        ctx = Context(local.randint(1, 4))
        a = random_poly(local, ctx, 3, n_terms=4)
        b = random_poly(local, ctx, 2, n_terms=3)
        c = Poly.constant(ctx, local.choice(scalars[3:]))
        results = [a + b, a - b, a - a, -a, a * b, b * a, a * b - b * a,
                   (a + b) * (a - b) - (a * a - b * b), a * Poly.zero(ctx),
                   c.partial(1), a ** 2]
        results += [a.partial(i) for i in ctx.axes()]
        results += [s * a for s in scalars] + [a * s for s in scalars]
        for r in results:
            _assert_canonical(r)
        assert (a - a).is_zero() and (a * b - b * a).is_zero()
        assert c.partial(1).is_zero() and (0 * a).is_zero()
        assert 1 * a == a and -1 * a == -a


def test_public_constructor_rejects_bad_exponents():
    ctx = Context(2)
    with pytest.raises(ValueError):
        Poly(ctx, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        Poly(ctx, {(1, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        Poly(ctx, {(1, -1): Fraction(1)})
    with pytest.raises(TypeError):
        Poly(ctx, {(1, 0): 0.5})
