"""The samplers against their Fraction-based reference bodies.

Each reference below builds one `Fraction` per coefficient and one `Poly`
per component, as the samplers once did.  For every seed a sampler must
give the reference's value, type, degree and printed text, and leave the
random stream in the same state, so every seeded report stays the same.
"""

import itertools
import random
from fractions import Fraction

from diracspace.calculus import Form, MultiVec, VField, lie_derivative
from diracspace.linalg import kernel_basis
from diracspace.poly import Context, Poly
from diracspace.sampling import (random_constant_form, random_form,
                                 random_multivec, random_poly,
                                 random_symmetry_vfield, random_vfield)


def _ref_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))


def _ref_exponents(dim, max_deg):
    return tuple(e for e in itertools.product(range(max_deg + 1), repeat=dim)
                 if sum(e) <= max_deg)


def _ref_poly(rng, ctx, max_deg=2, n_terms=2):
    exps = _ref_exponents(ctx.dim, max_deg)
    terms = {}
    for _ in range(n_terms):
        e = rng.choice(exps)
        terms[e] = terms.get(e, Fraction(0)) + _ref_rational(rng)
    return Poly(ctx, terms)


def _ref_form(rng, ctx, degree, max_deg=2):
    if degree < 0 or degree > ctx.dim:
        return Form.zero(ctx, degree)
    comps = {idx: _ref_poly(rng, ctx, max_deg, n_terms=1)
             for idx in itertools.combinations(ctx.axes(), degree)}
    return Form(ctx, degree, comps)


def _ref_constant_form(rng, ctx, degree):
    if degree < 0 or degree > ctx.dim:
        return Form.zero(ctx, degree)
    comps = {idx: Poly.constant(ctx, _ref_rational(rng))
             for idx in itertools.combinations(ctx.axes(), degree)}
    return Form(ctx, degree, comps)


def _ref_vfield(rng, ctx, max_deg=2):
    return VField(ctx, {i: _ref_poly(rng, ctx, max_deg, n_terms=1)
                        for i in ctx.axes()})


def _ref_multivec(rng, ctx, degree, max_deg=2):
    return MultiVec(ctx, degree, _ref_form(rng, ctx, degree, max_deg).comps)


def _ref_symmetry_vfield(rng, omega, max_deg=1):
    ctx = omega.ctx
    gens = [VField(ctx, {i: Poly(ctx, {e: Fraction(1)})})
            for i in ctx.axes() for e in _ref_exponents(ctx.dim, max_deg)]
    images = [lie_derivative(X, omega).terms for X in gens]
    keys = sorted({key for im in images for key in im})
    rows = [[im.get(key, Fraction(0)) for im in images] for key in keys]
    X = VField.zero(ctx)
    for v in kernel_basis(rows, len(gens)):
        c = _ref_rational(rng)
        if c == 0:
            continue
        for g, coef in zip(gens, v):
            if coef:
                X = X + g * (c * coef)
    return X


def _assert_same_draws(sampler, reference, seed, *args):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got, want = sampler(rng, *args), reference(ref_rng, *args)
    where = (sampler.__name__, seed, args)
    assert type(got) is type(want), where
    assert got == want, where
    assert getattr(got, "degree", None) == getattr(want, "degree", None)
    assert str(got) == str(want), where
    assert rng.getstate() == ref_rng.getstate(), where
    return got


def test_samplers_match_fraction_references():
    sums_to_zero = 0
    for dim in range(1, 7):
        ctx = Context(dim)
        for seed in range(8):
            for degree in range(-1, dim + 2):
                _assert_same_draws(random_constant_form, _ref_constant_form,
                                   seed, ctx, degree)
            for max_deg in range(3):
                for n_terms in range(1, 5):
                    f = _assert_same_draws(random_poly, _ref_poly, seed, ctx,
                                           max_deg, n_terms)
                    # max_deg = 0 draws one exponent n_terms times; at
                    # seed 5 two of them cancel
                    sums_to_zero += max_deg == 0 and f.is_zero()
                _assert_same_draws(random_vfield, _ref_vfield, seed, ctx,
                                   max_deg)
                for degree in range(-1, dim + 2):
                    _assert_same_draws(random_form, _ref_form, seed, ctx,
                                       degree, max_deg)
                    _assert_same_draws(random_multivec, _ref_multivec, seed,
                                       ctx, degree, max_deg)
    assert sums_to_zero


def test_symmetry_vfield_matches_fraction_reference():
    c3, c4 = Context(3), Context(4)
    x1 = Poly.variable(c3, 1)
    omegas = [Form(c3, 3, {(1, 2, 3): 1}),
              Form(c3, 2, {(2, 3): x1}),
              Form(c4, 2, {(1, 2): 1, (3, 4): Fraction(-3, 2)}),
              Form(c4, 3, {(1, 2, 3): 1, (2, 3, 4): 2})]
    for omega in omegas:
        for max_deg in (0, 1):
            for seed in range(10):
                _assert_same_draws(random_symmetry_vfield,
                                   _ref_symmetry_vfield, seed, omega,
                                   max_deg)
