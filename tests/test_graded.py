import itertools
import random
from fractions import Fraction
from math import gcd

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
from test_poly import _unpacked

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
        if n == 4:
            # B_3 = 0: the zero result is returned without a bracket,
            # after the context check
            assert not calls
            with pytest.raises(ValueError):
                oracle_bracket(r, ctx4, elems)
            with pytest.raises(ValueError):
                oracle_bracket(3, ctx3, elems)
        else:
            assert 0 < len(calls) <= n * 2 ** (n - 1)


def test_encode_element_zero_needs_context():
    from diracspace.linfty import GradedElem
    with pytest.raises(ValueError):
        encode_element(2, GradedElem.zero())
    g, k = encode_element(2, GradedElem.zero(), ctx3)
    assert g.is_zero() and k == 1


def test_public_constructor_refuses_bad_input():
    ctx = Context(2)
    v0 = (("v", 0),)
    with pytest.raises(TypeError):
        GPoly(2, ctx, {((0, 0), v0): 0.5})
    for terms in ({((0, 0, 1), v0): 1}, {((0, -1), v0): 1},
                  {((0, 0), (("q", 7),)): 1}, {((0, 0), (("p", 2),)): 1}):
        with pytest.raises(ValueError):
            GPoly(2, ctx, terms)


def test_gpoly_and_poly_do_not_mix():
    # the int store is shared, but a sum of the two kinds is refused
    x1, g = Poly.variable(ctx3, 1), s_poly(2, ctx3)
    dx1 = Form.basis(ctx3, (1,))
    for mixed in (lambda: x1 + g, lambda: g + x1, lambda: x1 - g,
                  lambda: g - x1, lambda: g + dx1, lambda: dx1 + g):
        with pytest.raises(ValueError):
            mixed()


class _RefGPoly:
    """Reference model: the GPoly arithmetic on Fraction terms keyed by
    (exponents, word), each word sorted with its Koszul sign when the
    object is built."""

    def __init__(self, r, ctx, terms=None):
        self.r = r
        self.ctx = ctx
        clean = {}

        def odd(gen):
            return graded._gen_degree(gen, r) % 2

        for (e, gens), c in (terms or {}).items():
            sign, word = _sort_sign(gens, odd)
            if sign == 0 or c == 0:
                continue
            key = (e, word)
            clean[key] = clean.get(key, Fraction(0)) + sign * c
        self.terms = {k: v for k, v in clean.items() if v != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return _RefGPoly(self.r, self.ctx, out)

    def __neg__(self):
        return _RefGPoly(self.r, self.ctx,
                         {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _RefGPoly(self.r, self.ctx,
                             {k: c * other for k, c in self.terms.items()})
        out = {}
        for (ea, ga), ca in self.terms.items():
            for (eb, gb), cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                key = (e, ga + gb)
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return _RefGPoly(self.r, self.ctx, out)

    __rmul__ = __mul__

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e, gens), c in sorted(self.terms.items()):
            mono = "*".join([f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                             for i, k in enumerate(e) if k]
                            + [f"{g[0]}{g[1]}" for g in gens]) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def _ref_gbracket(a, b):
    """Reference model: gbracket as one loop over the term pairs that
    recomputes every entry, on _RefGPoly operands."""
    r = a.r
    out = {}

    def put(e, i, word, c):
        if i is not None:
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
        out[(e, word)] = out.get((e, word), 0) + c

    deg = graded._gen_degree
    for (ea, ga), ca in a.terms.items():
        dga = [deg(g, r) for g in ga]
        for (eb, gb), cb in b.terms.items():
            dgb = [deg(g, r) for g in gb]
            D = sum(dgb) - r
            e = tuple(x + y for x, y in zip(ea, eb))
            after = sum(dga)
            for j, f in enumerate(ga):
                after -= dga[j]
                c = -ca * cb if after * D % 2 else ca * cb
                head, tail = ga[:j], ga[j + 1:]
                if f[0] == "P":
                    if eb[f[1]]:
                        put(e, f[1], head + gb + tail, eb[f[1]] * c)
                    continue
                before = 0
                for l, g in enumerate(gb):
                    if g[1] == f[1] and f[0] + g[0] in ("pv", "vp"):
                        s = (dga[j] - r) * before + (r if f[0] == "v" else 0)
                        put(e, None, head + gb[:l] + gb[l + 1:] + tail,
                            -c if s % 2 else c)
                    before += dgb[l]
            c = -ca * cb if sum(dga) * D % 2 else ca * cb
            before = 0
            for l, g in enumerate(gb):
                if g[0] == "P" and ea[g[1]]:
                    put(e, g[1], gb[:l] + gb[l + 1:] + ga,
                        (ea[g[1]] if r * before % 2 else -ea[g[1]]) * c)
                before += dgb[l]
    return _RefGPoly(r, a.ctx, out)


def _ref_terms(local, r, ctx, size):
    """Up to ``size`` terms over words of 0-4 generators drawn with
    repeats (so repeated odd generators occur), exponents up to 2 and
    denominators 1, 2, 3 and 6, some with their word reversed too; half
    the time every word has the degree of the first one."""
    gens = [(k, i) for k in "vpP" for i in range(ctx.dim)]
    homogeneous = local.random() < 0.5
    terms, deg = {}, None
    for _ in range(40):
        word = tuple(local.choice(gens) for _ in range(local.randint(0, 4)))
        d = sum(graded._gen_degree(g, r) for g in word)
        if homogeneous and deg is not None and d != deg:
            continue
        deg = d
        e = tuple(local.randint(0, 2) for _ in range(ctx.dim))
        terms[(e, word)] = Fraction(local.randint(-4, 4),
                                    local.choice((1, 2, 3, 6)))
        if len(terms) == size:
            break
    # reversed words share a normal form: their sum may cancel or leave
    # a common factor for the constructor to divide out
    for (e, word), c in list(terms.items()):
        if len(word) > 1 and local.random() < 0.3:
            terms[(e, word[::-1])] = local.choice((c, -c, 2 * c))
    return terms


def _assert_stored(g, ref):
    """``g`` holds the value of ``ref`` in canonical int storage."""
    def odd(gen):
        return graded._gen_degree(gen, g.r) % 2

    # g keys its store (word, exponents), the reference (exponents, word)
    swapped = {(e, word): c for (word, e), c in g.terms.items()}
    assert swapped == ref.terms and str(g) == str(ref)
    assert type(g._den) is int and g._den > 0
    assert gcd(g._den, *g._num.values()) == 1
    for (word, e), n in g._num.items():
        assert type(n) is int and n != 0
        assert _sort_sign(word, odd) == (1, word)
    assert list(zip([w for w, _ in g._num], _unpacked(
        g.ctx, [e for _, e in g._num]))) == list(g.terms)
    assert g == GPoly(g.r, g.ctx, ref.terms)


def test_int_storage_matches_fraction_reference():
    local = random.Random(6174)
    live = cancelled = 0
    for t in range(400):
        r = local.randint(1, 4)
        ctx = Context(local.randint(1, 3))
        ta, tb, tc = (_ref_terms(local, r, ctx, local.randint(1, 4))
                      for _ in range(3))
        a, b, c = (GPoly(r, ctx, x) for x in (ta, tb, tc))
        ra, rb, rc = (_RefGPoly(r, ctx, x) for x in (ta, tb, tc))
        q = Fraction(local.randint(-6, 6), local.choice((1, 2, 3, 6)))
        k = local.randint(-3, 3)
        pairs = [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
                 (q * a, q * ra), (a * q, ra * q), (k * b, k * rb),
                 (a * b, ra * rb),
                 (gbracket(a, b), _ref_gbracket(ra, rb)),
                 (gbracket(b, a), _ref_gbracket(rb, ra)),
                 (gbracket(a, a), _ref_gbracket(ra, ra)),
                 (gbracket(a * b, c), _ref_gbracket(ra * rb, rc)),
                 (gbracket(a, b + c) - gbracket(a, b),
                  _ref_gbracket(ra, rb + rc) - _ref_gbracket(ra, rb)),
                 (gbracket(a, b) * Fraction(1, 6) + gbracket(a, c),
                  _ref_gbracket(ra, rb) * Fraction(1, 6)
                  + _ref_gbracket(ra, rc))]
        for got, want in pairs:
            _assert_stored(got, want)
            live += not got.is_zero()
        # a sum that cancels, and a bracket whose entries cancel inside
        # one call ({a, a} = 0 for even |a| - r)
        assert (a - a).is_zero() and (a - a)._den == 1
        assert (gbracket(a, b + c) - gbracket(a, b) - gbracket(a, c)
                ).is_zero()
        da = a.degree()
        if da is not None and (da - r) % 2 == 0:
            assert gbracket(a, a).is_zero()
            monos = [GPoly(r, ctx, {key: v}) for key, v in ta.items()]
            cancelled += any(not gbracket(m, m2).is_zero()
                             for m in monos for m2 in monos)
    for r, ctx in ((2, ctx3), (3, ctx4)):
        assert gbracket(s_poly(r, ctx), s_poly(r, ctx)).is_zero()
    assert live >= 3500 and cancelled >= 25


def test_exponent_ceiling_in_gbracket():
    # {x1^a p0, x1 v0} = x1^(a+1): a = 32766 is the largest that fits
    ctx = Context(1)
    v0, p0 = (("v", 0),), (("p", 0),)
    b = GPoly(2, ctx, {((1,), v0): 1})
    got = gbracket(GPoly(2, ctx, {((32766,), p0): 1}), b)
    assert got == GPoly(2, ctx, {((32767,), ()): 1})
    with pytest.raises(ValueError, match="above 32767"):
        gbracket(GPoly(2, ctx, {((32767,), p0): 1}), b)


def test_constructor_refuses_keys_of_the_wrong_shape():
    # the store's own (word, exponents) keys, as `terms` gives them, are
    # not constructor keys, and every exponent is an int
    ctx = Context(2)
    v0 = (("v", 0),)
    S = s_poly(2, ctx)
    with pytest.raises(ValueError):
        GPoly(S.r, S.ctx, S.terms)
    for terms in ({(v0, (0, 0)): 1}, {((1.0, 0), v0): 1},
                  {((Fraction(1), 0), v0): 1}, {((0, 0), v0, ()): 1},
                  {(0, 0): 1}, {((0, 0), (0, 0)): 1}):
        with pytest.raises(ValueError):
            GPoly(2, ctx, terms)
