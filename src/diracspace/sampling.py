"""Seeded random generators for property checks.

Polynomial coefficients have total degree <= 2 and integer numerators in
[-9, 9] over denominators drawn from {1, 1, 2, 3}; every suite threads an
explicit random.Random so reports are reproducible.

Forms and multivectors are drawn straight onto the int-numerator store:
one (index tuple, packed exponents, numerator, denominator) term per
component, with no `Fraction` or `Poly` in between.  Vector fields still
go through the public `Poly` constructor, one per component: that is
where a traced ``lagrangian`` benchmark run records its ``Poly``
constructor calls.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb

from .calculus import (Form, MultiVec, VField, const, contract, deRham,
                       poincare_primitive)
from .poly import Context, Poly, _from_terms, _pack
from .presentations import NotHamiltonian

# a denominator of 1 is drawn with probability 1/2
_DENOMINATORS = (1, 1, 2, 3)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(_DENOMINATORS))


@lru_cache(maxsize=64)
def _exponents(dim: int, max_deg: int) -> tuple:
    """The exponent vectors of total degree <= max_deg, in product order."""
    return tuple(e for e in itertools.product(range(max_deg + 1), repeat=dim)
                 if sum(e) <= max_deg)


@lru_cache(maxsize=64)
def _packed_exponents(ctx: Context, max_deg: int) -> tuple:
    """The packed keys of ``_exponents(ctx.dim, max_deg)``, in its order."""
    return tuple(_pack(ctx, e) for e in _exponents(ctx.dim, max_deg))


def _random_terms(rng: random.Random, ctx: Context, degree: int,
                  max_deg: int) -> tuple:
    """The (num, den) store of a random graded value of ``degree``: per
    index tuple, in `itertools.combinations` order, one monomial of total
    degree <= max_deg times a `random_rational`, drawn in that order; zero
    outside degrees 0..dim."""
    if not 0 <= degree <= ctx.dim:
        return {}, 1
    keys = _packed_exponents(ctx, max_deg)
    choice, randint = rng.choice, rng.randint
    return _from_terms([((idx, choice(keys)), randint(-9, 9),
                         choice(_DENOMINATORS))
                        for idx in itertools.combinations(ctx.axes(), degree)])


def random_poly(rng: random.Random, ctx: Context, max_deg: int = 2,
                n_terms: int = 2) -> Poly:
    exps = _exponents(ctx.dim, max_deg)
    terms: dict = {}
    for _ in range(n_terms):
        e = rng.choice(exps)
        c = random_rational(rng)
        terms[e] = terms[e] + c if e in terms else c
    return Poly(ctx, terms)


def random_form(rng: random.Random, ctx: Context, degree: int,
                max_deg: int = 2) -> Form:
    return Form._raw(ctx, degree, *_random_terms(rng, ctx, degree, max_deg))


def random_constant_form(rng: random.Random, ctx: Context, degree: int) -> Form:
    if degree < 0 or degree > ctx.dim:
        return Form.zero(ctx, degree)
    return const(Form, ctx, degree, [random_rational(rng)
                                     for _ in range(comb(ctx.dim, degree))])


def random_closed_form(rng: random.Random, ctx: Context, degree: int) -> Form:
    """Exact part plus a constant form; closed by construction."""
    out = random_constant_form(rng, ctx, degree)
    if 1 <= degree <= ctx.dim:
        out = out + deRham(random_form(rng, ctx, degree - 1))
    return out


def random_vfield(rng: random.Random, ctx: Context, max_deg: int = 2) -> VField:
    # one public Poly per component on purpose: these are the only Poly
    # constructor calls a traced lagrangian benchmark run makes, and its
    # poly.new.calls hook must record some
    return VField(ctx, {i: random_poly(rng, ctx, max_deg, n_terms=1)
                        for i in ctx.axes()})


def random_multivec(rng: random.Random, ctx: Context, degree: int,
                    max_deg: int = 2) -> MultiVec:
    """The same draws as ``random_form``, read as a multivector."""
    return MultiVec._raw(ctx, degree,
                         *_random_terms(rng, ctx, degree, max_deg))


def random_symmetry_vfield(rng: random.Random, omega: Form,
                           max_deg: int = 1) -> VField:
    """A random polynomial vector field with L_X omega = 0.

    Solves the linear constraint on coefficients of total degree
    <= max_deg; with closed omega these X admit Hamiltonian potentials.
    Each kernel vector gets one `random_rational` weight.
    """
    terms = []
    for v in _symmetry_kernel(omega, max_deg):
        n, d = random_rational(rng).as_integer_ratio()
        if n:
            terms += [(key, n * p, d * q) for key, p, q in v]
    return VField._raw(omega.ctx, 1, *_from_terms(terms))


@lru_cache(maxsize=64)
def _symmetry_kernel(omega: Form, max_deg: int) -> tuple:
    """A basis of the coefficient vectors of the vector fields X of
    degree <= max_deg with L_X omega = 0, each as the (store key of a
    monomial generator, numerator, denominator) of its nonzero entries;
    it draws nothing from a random stream, so caching it leaves every
    draw the same."""
    from .linalg import kernel_basis
    from .calculus import lie_derivative

    ctx = omega.ctx
    gens = [VField(ctx, {i: Poly(ctx, {e: Fraction(1)})})
            for i in ctx.axes() for e in _exponents(ctx.dim, max_deg)]
    images = [lie_derivative(X, omega).terms for X in gens]
    keys = sorted({key for im in images for key in im})
    rows = [[im.get(key, Fraction(0)) for im in images] for key in keys]
    gen_keys = [next(iter(X._num)) for X in gens]
    return tuple(tuple((k, *c.as_integer_ratio())
                       for k, c in zip(gen_keys, v) if c)
                 for v in kernel_basis(rows, len(gens)))


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
