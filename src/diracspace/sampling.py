"""Seeded random generators for property checks.

Polynomial coefficients have total degree <= 2 and integer numerators in
[-9, 9]; every suite threads an explicit random.Random so reports are
reproducible.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .calculus import (Form, MultiVec, VField, contract, deRham,
                       poincare_primitive)
from .poly import Context, Poly
from .presentations import NotHamiltonian


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))


@lru_cache(maxsize=64)
def _exponents(dim: int, max_deg: int) -> tuple:
    """The exponent vectors of total degree <= max_deg, in product order."""
    return tuple(e for e in itertools.product(range(max_deg + 1), repeat=dim)
                 if sum(e) <= max_deg)


def random_poly(rng: random.Random, ctx: Context, max_deg: int = 2,
                n_terms: int = 2) -> Poly:
    exps = _exponents(ctx.dim, max_deg)
    terms: dict = {}
    for _ in range(n_terms):
        e = rng.choice(exps)
        terms[e] = terms.get(e, Fraction(0)) + random_rational(rng)
    return Poly(ctx, terms)


def random_form(rng: random.Random, ctx: Context, degree: int,
                max_deg: int = 2) -> Form:
    if degree < 0 or degree > ctx.dim:
        return Form.zero(ctx, degree)
    comps = {
        idx: random_poly(rng, ctx, max_deg, n_terms=1)
        for idx in itertools.combinations(ctx.axes(), degree)
    }
    return Form(ctx, degree, comps)


def random_constant_form(rng: random.Random, ctx: Context, degree: int) -> Form:
    if degree < 0 or degree > ctx.dim:
        return Form.zero(ctx, degree)
    comps = {
        idx: Poly.constant(ctx, random_rational(rng))
        for idx in itertools.combinations(ctx.axes(), degree)
    }
    return Form(ctx, degree, comps)


def random_closed_form(rng: random.Random, ctx: Context, degree: int) -> Form:
    """Exact part plus a constant form; closed by construction."""
    out = random_constant_form(rng, ctx, degree)
    if 1 <= degree <= ctx.dim:
        out = out + deRham(random_form(rng, ctx, degree - 1))
    return out


def random_vfield(rng: random.Random, ctx: Context, max_deg: int = 2) -> VField:
    return VField(ctx, {i: random_poly(rng, ctx, max_deg, n_terms=1)
                        for i in ctx.axes()})


def random_multivec(rng: random.Random, ctx: Context, degree: int,
                    max_deg: int = 2) -> MultiVec:
    """The same draws as ``random_form``, read as a multivector."""
    return MultiVec(ctx, degree, random_form(rng, ctx, degree, max_deg).comps)


def random_symmetry_vfield(rng: random.Random, omega: Form,
                           max_deg: int = 1) -> VField:
    """A random polynomial vector field with L_X omega = 0.

    Solves the linear constraint on coefficients of total degree
    <= max_deg; with closed omega these X admit Hamiltonian potentials.
    """
    gens, ker = _symmetry_kernel(omega, max_deg)
    X = VField.zero(omega.ctx)
    for v in ker:
        c = random_rational(rng)
        if c == 0:
            continue
        for g, coef in zip(gens, v):
            if coef:
                X = X + g * (c * coef)
    return X


@lru_cache(maxsize=64)
def _symmetry_kernel(omega: Form, max_deg: int) -> tuple:
    """The monomial generators X of degree <= max_deg and a basis of the
    coefficient vectors with L_X omega = 0, as tuples; it draws nothing
    from a random stream, so caching it leaves every draw the same."""
    from .linalg import kernel_basis
    from .calculus import lie_derivative

    ctx = omega.ctx
    gens = [VField(ctx, {i: Poly(ctx, {e: Fraction(1)})})
            for i in ctx.axes() for e in _exponents(ctx.dim, max_deg)]
    images = [lie_derivative(X, omega).terms for X in gens]
    keys = sorted({key for im in images for key in im})
    rows = [[im.get(key, Fraction(0)) for im in images] for key in keys]
    ker = kernel_basis(rows, len(gens))
    return tuple(gens), tuple(tuple(v) for v in ker)


def random_observables_elem(rng: random.Random, F, max_deg: int = 1):
    """A random element of an ObservablesFamily ``F``.

    A lower form with probability 0.35 when p > 1; otherwise a
    Hamiltonian (p-1)-form.  With constant omega a random form is tried
    first; when omega is not constant, or is degenerate and that form has
    no Hamiltonian vector field, a symmetry vector field X is drawn and
    alpha is a primitive of -iota_X omega.
    """
    P = F.P
    if P.p > 1 and rng.random() < 0.35:
        k = rng.randrange(1, P.p)
        return F.form(-k, random_form(rng, P.ctx, P.p - 1 - k,
                                      max_deg=max_deg))
    if P.omega.is_constant():
        try:
            return F.element(random_form(rng, P.ctx, P.p - 1,
                                         max_deg=max_deg))
        except NotHamiltonian:
            pass
    X = random_symmetry_vfield(rng, P.omega, 1)
    beta = -contract(X, P.omega)
    alpha = (poincare_primitive(beta) if not beta.is_zero()
             else Form.zero(P.ctx, P.p - 1))
    alpha = alpha + random_closed_form(rng, P.ctx, P.p - 1)
    return F.element(alpha, X)


def random_twisted_elem(rng: random.Random, F, max_deg: int = 1):
    """A random element of a TwistedSectionsFamily ``F``: a lower form
    with probability 0.35 when r > 1, otherwise a section."""
    if F.r > 1 and rng.random() < 0.35:
        k = rng.randrange(1, F.r)
        return F.form(-k, random_form(rng, F.ctx, F.r - 1 - k,
                                      max_deg=max_deg))
    return F.section(random_vfield(rng, F.ctx, max_deg=max_deg),
                     random_form(rng, F.ctx, F.r - 1, max_deg=max_deg))
