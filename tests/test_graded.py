import itertools
import random
from fractions import Fraction

import pytest

from diracspace.poly import Context, Poly
from diracspace.calculus import Form, _sort_sign, deRham
from diracspace.courant import SectionEp
from diracspace import graded
from diracspace.graded import (GPoly, _binom2, decode, derived_check,
                               encode_element, encode_form, encode_section,
                               encode_vfield, gbracket, oracle_bracket,
                               oracle_compare, s_poly, structure_constant)
from diracspace.linfty import TwistedSectionsFamily
from diracspace.sampling import random_form, random_poly, random_vfield

rng = random.Random(808)

ctx3 = Context(3)
ctx4 = Context(4)


def rand_gpoly(r, ctx, nterms=3):
    """Homogeneous random element: a word times a polynomial."""
    kinds = [("v", i) for i in range(ctx.dim)] + \
        [("p", i) for i in range(ctx.dim)] + \
        [("P", i) for i in range(ctx.dim)]
    out = GPoly.zero(r, ctx)
    word = tuple(sorted(rng.sample(kinds, rng.randint(0, 2))))
    for _ in range(nterms):
        e = tuple(rng.randint(0, 1) for _ in range(ctx.dim))
        c = Fraction(rng.randint(-3, 3))
        out = out + GPoly(r, ctx, {(e, word): c})
    return out


def _degree(g):
    return g.degree()


def test_gbracket_graded_antisymmetry():
    for r in (2, 3):
        for _ in range(12):
            a, b = rand_gpoly(r, ctx3), rand_gpoly(r, ctx3)
            da, db = a.degree(), b.degree()
            if da is None or db is None:
                continue
            sgn = -1 if ((da - r) * (db - r)) % 2 else 1
            assert gbracket(a, b) + sgn * gbracket(b, a) == \
                GPoly.zero(r, ctx3)


def test_gbracket_graded_jacobi():
    for r in (2, 3):
        for _ in range(8):
            a, b, c = (rand_gpoly(r, ctx3, 2) for _ in range(3))
            da, db = a.degree(), b.degree()
            if da is None or db is None:
                continue
            sgn = -1 if ((da - r) * (db - r)) % 2 else 1
            lhs = gbracket(a, gbracket(b, c))
            rhs = gbracket(gbracket(a, b), c) + sgn * gbracket(
                b, gbracket(a, c))
            assert lhs == rhs


def _word_gpoly(wrng, r, ctx):
    """Two polynomial terms on one word of 3-4 distinct generators."""
    gens = [(k, i) for k in "vpP" for i in range(ctx.dim)]
    word = tuple(wrng.sample(gens, wrng.randint(3, 4)))
    return GPoly(r, ctx, {
        (tuple(wrng.randint(0, 2) for _ in range(ctx.dim)), word):
            Fraction(wrng.randint(1, 3)) for _ in range(2)})


def test_gbracket_leibniz():
    wrng = random.Random(4711)
    live = 0
    for r in (1, 2, 3, 4):
        for ctx in (ctx3, ctx4):
            zero_e = (0,) * ctx.dim
            one = GPoly(r, ctx, {(zero_e, ()): 1})
            for i in range(ctx.dim):
                unit = tuple(int(k == i) for k in range(ctx.dim))

                def gen(kind, j=i):
                    return GPoly(r, ctx, {(zero_e, ((kind, j),)): 1})

                x_i = GPoly(r, ctx, {(unit, ()): 1})
                assert gbracket(gen("P"), x_i) == one
                assert gbracket(gen("p"), gen("v")) == one
                assert gbracket(gen("v"), gen("p")) == \
                    (-1 if r % 2 else 1) * one
                j = (i + 1) % ctx.dim
                assert gbracket(gen("P", j), x_i).is_zero()
                assert gbracket(gen("p"), gen("v", j)).is_zero()
            for _ in range(8):
                # homogeneous a, b, c with a*b and b*c nonzero
                while True:
                    a, b, c = (_word_gpoly(wrng, r, ctx) for _ in range(3))
                    if not (a * b).is_zero() and not (b * c).is_zero():
                        break
                da, db, dc = a.degree(), b.degree(), c.degree()
                s1 = -1 if (db * (dc - r)) % 2 else 1
                assert gbracket(a * b, c) == \
                    a * gbracket(b, c) + s1 * gbracket(a, c) * b
                s2 = -1 if ((da - r) * db) % 2 else 1
                assert gbracket(a, b * c) == \
                    gbracket(a, b) * c + s2 * b * gbracket(a, c)
                live += not gbracket(a, b * c).is_zero()
    assert live >= 32


def test_generator_squares_to_zero():
    for r, ctx in ((2, ctx3), (3, ctx4)):
        S = s_poly(r, ctx)
        assert gbracket(S, S).is_zero()


def test_bracket_with_generator_is_de_rham():
    for r, ctx in ((2, ctx3), (3, ctx4)):
        S = s_poly(r, ctx)
        for k in range(0, r):
            xi = random_form(rng, ctx, k, max_deg=1)
            assert gbracket(S, encode_form(r, xi)) == \
                encode_form(r, deRham(xi))


def test_decode_inverts_encodings():
    for r, ctx in ((2, ctx3), (3, ctx4)):
        for _ in range(30):
            k = rng.randrange(0, r)
            xi = random_form(rng, ctx, k, max_deg=1)
            assert decode(encode_form(r, xi), p=k) == xi
            X = random_vfield(rng, ctx, 1)
            if not X.is_zero():
                assert decode(encode_vfield(r, X)) == X
            e = SectionEp(r - 1, X, random_form(rng, ctx, r - 1, max_deg=1))
            assert decode(encode_section(r, e), p=r - 1, section=True) == e


def test_decode_rejects_generator_words():
    g = s_poly(2, ctx3)
    with pytest.raises(ValueError):
        decode(g)


def test_derived_check_untwisted_and_twisted():
    rep = derived_check(2, ctx3, random.Random(1), None, samples=3)
    assert rep["status"] == "pass"
    assert rep["pipeline"] == "derived-bracket"
    assert rep["master_equation"] and rep["twist_closed"]
    H = Form(ctx3, 3, {(1, 2, 3): random_poly(rng, ctx3, 1)})
    rep = derived_check(2, ctx3, random.Random(2), H, samples=2)
    assert rep["status"] == "pass" and rep["twist_closed"]


def test_derived_check_detects_nonclosed_twist():
    Hnc = Form(ctx4, 3, {(1, 2, 3): Poly.variable(ctx4, 4)})
    rep = derived_check(2, ctx4, random.Random(3), Hnc, samples=2)
    assert rep["status"] == "pass"
    assert rep["master_equation"]
    assert not rep["twist_closed"]
    assert rep["master_zero_iff_closed"]


def test_multibracket_arity_cap():
    elems = [(GPoly.zero(2, ctx3), 1)] * 6
    with pytest.raises(ValueError):
        oracle_bracket(2, ctx3, elems)


def _rand_elem(F, kind):
    if kind == 0:
        return F.section(random_vfield(rng, F.ctx, 1),
                         random_form(rng, F.ctx, F.r - 1, max_deg=1))
    return F.form(-kind, random_form(rng, F.ctx, F.r - 1 - kind, max_deg=1))


def test_oracle_matches_direct_brackets():
    for r, ctx, H in [
            (2, ctx3, None),
            (2, ctx3, Form(ctx3, 3, {(1, 2, 3): random_poly(rng, ctx3, 1)})),
            (3, ctx4, None)]:
        F = TwistedSectionsFamily(r, ctx, H)
        for n in (2, 3):
            tuples = []
            for t in range(3):
                kinds = [0] * n
                if t % 2 and r > 1:
                    kinds[rng.randrange(n)] = rng.randrange(1, r)
                tuples.append([_rand_elem(F, k) for k in kinds])
            assert oracle_compare(F, tuples) == []


def test_oracle_matches_direct_arity5():
    F = TwistedSectionsFamily(4, ctx4, None)
    tuples = [[_rand_elem(F, 0) for _ in range(5)]]
    assert oracle_compare(F, tuples) == []


def _permutation_oracle(r, ctx, elems, H=None):
    """Reference for ``oracle_bracket``: the same derived bracket as one
    nested ``gbracket`` chain per ordering that starts with a top-degree
    element, each with the Koszul sign of its permutation."""
    n = len(elems)
    Sd = s_poly(r, ctx)
    if H is not None:
        Sd = Sd - encode_form(r, H)
    parities = [(k - r) % 2 for _, k in elems]
    total = GPoly.zero(r, ctx)
    for sigma in itertools.permutations(range(n)):
        if elems[sigma[0]][1] != r - 1:
            continue
        eps = _sort_sign(sigma, parities.__getitem__)[0]
        cur = gbracket(Sd, elems[sigma[0]][0])
        for idx in sigma[1:]:
            cur = gbracket(cur, elems[idx][0])
        total = total + eps * cur
    dec = sum((n - i) * (k - r + 1) for i, (_, k) in enumerate(elems, 1))
    conv = -1 if (_binom2(n - 1) + dec) % 2 else 1
    return (conv * structure_constant(n)) * total


def _raw_gpoly(wrng, r, ctx, deg):
    """Two or three terms, each on a word of 1-3 generators mixing v, p
    and P with total degree ``deg``."""
    gens = [(k, i) for k in "vpP" for i in range(ctx.dim)]
    terms, size = {}, wrng.randint(2, 3)
    while len(terms) < size:
        word = tuple(wrng.sample(gens, wrng.randint(1, 3)))
        if sum(graded._gen_degree(g, r) for g in word) == deg:
            e = tuple(wrng.randint(0, 1) for _ in range(ctx.dim))
            terms[(e, word)] = Fraction(wrng.choice((-3, -2, -1, 1, 2, 3)))
    return GPoly(r, ctx, terms)


def test_oracle_subset_sum_matches_permutation_sum():
    """Raw GPolys with mixed parities: encoded complex elements make most
    sums vanish by structure, and equal parities let a sign error cancel.
    Arity 4 is left out because its structure constant is B_3 = 0."""
    wrng = random.Random(1729)
    H = Form(ctx3, 3, {(1, 2, 3): random_poly(wrng, ctx3, 1)})
    live = 0
    for t in range(90):
        r, n = wrng.choice((2, 3)), (2, 3, 5)[t % 3]
        degs = [r - 1] + [wrng.choice((r - 1, r, r + 1)) for _ in range(n - 1)]
        wrng.shuffle(degs)
        elems = [(_raw_gpoly(wrng, r, ctx3, k), k) for k in degs]
        Ht = H if r == 2 and t % 2 else None
        want = _permutation_oracle(r, ctx3, elems, Ht)
        assert oracle_bracket(r, ctx3, elems, Ht) == want, (t, r, degs)
        live += not want.is_zero()
    assert live >= 75


def test_oracle_gbracket_count_is_subset_bound(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(1)
        return gbracket(a, b)

    monkeypatch.setattr(graded, "gbracket", counting)
    wrng = random.Random(31)
    for n in range(2, 6):
        r = 2
        elems = [(_raw_gpoly(wrng, r, ctx3, r - 1), r - 1) for _ in range(n)]
        calls.clear()
        oracle_bracket(r, ctx3, elems)
        assert 0 < len(calls) <= n * 2 ** (n - 1)


def test_encode_element_zero_needs_context():
    from diracspace.linfty import GradedElem
    with pytest.raises(ValueError):
        encode_element(2, GradedElem.zero())
    g, k = encode_element(2, GradedElem.zero(), ctx3)
    assert g.is_zero() and k == 1
