import random
from fractions import Fraction
from math import gcd

import pytest

from diracspace.poly import (EXPONENT_CEILING, Context, Poly, _from_terms,
                             _pack, bernoulli)
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


def _constant_value(a):
    # the value of a constant Poly
    if a.is_zero():
        return Fraction(0)
    if not a.is_constant():
        raise ValueError("polynomial is not constant")
    return Fraction(next(iter(a._num.values())), a._den)


def test_variable_and_constant():
    ctx = Context(2)
    x1 = Poly.variable(ctx, 1)
    assert x1.partial(1) == Poly.constant(ctx, 1)
    assert x1.partial(2).is_zero()
    c = Poly.constant(ctx, Fraction(5, 3))
    assert c.is_constant() and _constant_value(c) == Fraction(5, 3)


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


def _unpacked(ctx: Context, keys) -> list:
    """The exponent tuples of packed keys, each an int with the guard bits
    clear that packs back to itself."""
    guard, unpack = ctx._layout.guard, ctx._layout.unpack
    out = []
    for key in keys:
        assert type(key) is int and key >= 0 and not key & guard
        exp = unpack(key)
        assert _pack(ctx, exp) == key
        out.append(exp)
    return out


def _assert_canonical(p: Poly):
    dim = p.ctx.dim
    for exp, c in p.terms.items():
        assert type(exp) is tuple and len(exp) == dim
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) is Fraction and c != 0
    assert type(p._den) is int and p._den > 0
    assert gcd(p._den, *p._num.values()) == 1
    assert all(type(n) is int and n != 0 for n in p._num.values())
    assert _unpacked(p.ctx, p._num) == list(p.terms)
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
    # a zero coefficient does not excuse its key
    with pytest.raises(ValueError):
        Poly(ctx, {(1, 2, 3): 0})
    with pytest.raises(ValueError):
        Poly(ctx, {(1, -1): 0})
    with pytest.raises(TypeError):
        Poly(ctx, {(1, 0): 0.5})


def test_exponent_ceiling_in_constructor_and_product():
    # 15 value bits per variable: 32767 is the largest exponent, and no
    # key or product wraps into the next variable's field
    ctx = Context(2)
    assert EXPONENT_CEILING == 32767
    top = Poly(ctx, {(32767, 0): 1})
    assert top.terms == {(32767, 0): 1} and str(top) == "x1^32767"
    for exp in ((32768, 0), (0, 32768), (65536, 0)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Poly(ctx, {exp: 1})
    x1, x2 = Poly.variable(ctx, 1), Poly.variable(ctx, 2)
    below = Poly(ctx, {(32766, 32767): 1})
    assert (below * x1).terms == {(32767, 32767): 1}
    assert (below * x1).partial(1).terms == {(32766, 32767): 32767}
    with pytest.raises(ValueError, match="above 32767"):
        below * x2
    with pytest.raises(ValueError, match="above 32767"):
        top * (x1 + x2)
    with pytest.raises(ValueError, match="above 32767"):
        top * top


def test_non_int_exponents_are_refused():
    ctx = Context(2)
    for exp in ((1.0, 0), (Fraction(1), 0), ("1", 0), ((0,), 0)):
        with pytest.raises(ValueError):
            Poly(ctx, {exp: 1})


# -- the integer kernel against a dict-of-Fraction model ----------------

def _model_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _model_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _model_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i - 1]:
            out[e[:i - 1] + (e[i - 1] - 1,) + e[i:]] = c * e[i - 1]
    return out


def _random_coeff(local):
    return Fraction(local.randint(-12, 12), local.randint(1, 7))


def _random_model(local, dim, n_terms):
    exps = [tuple(local.randint(0, 2) for _ in range(dim))
            for _ in range(n_terms)]
    return {e: c for e in exps if (c := _random_coeff(local))}


def test_kernel_matches_fraction_model():
    local = random.Random(5150)
    for _ in range(300):
        ctx = Context(local.randint(1, 3))
        pool = [(Poly(ctx, m), m) for m in
                (_random_model(local, ctx.dim, local.randint(0, 4))
                 for _ in range(3))]
        for a, ma in pool:
            assert a.terms == ma
            _assert_canonical(a)
        for _ in range(8):
            (a, ma), (b, mb) = local.choice(pool), local.choice(pool)
            op = local.randrange(7)
            if op == 0:
                r, mr = a + b, _model_add(ma, mb)
            elif op == 1:
                r, mr = a - b, _model_add(ma, mb, -1)
            elif op == 2:
                r, mr = a * b, _model_mul(ma, mb)
            elif op == 3:
                s = local.choice([local.randint(-6, 6), _random_coeff(local)])
                r = s * a if local.random() < 0.5 else a * s
                mr = {e: s * c for e, c in ma.items() if s * c}
            elif op == 4:
                i = local.randint(1, ctx.dim)
                r, mr = a.partial(i), _model_partial(ma, i)
            elif op == 5:
                k = local.randint(0, 3)
                r, mr = a ** k, {(0,) * ctx.dim: Fraction(1)}
                for _ in range(k):
                    mr = _model_mul(mr, ma)
            else:
                if b.is_zero():
                    continue
                r, mr = (a * b).divide_exact(b), ma
            assert r.terms == mr
            _assert_canonical(r)
            if len(pool) < 12 and len(r.terms) <= 6:
                pool.append((r, mr))


def test_equal_values_hash_equal():
    ctx = Context(2)
    one = (0, 0)
    x1 = Poly.variable(ctx, 1)
    pairs = [
        (Poly(ctx, {one: Fraction(2, 4)}), Poly.constant(ctx, 1) * Fraction(1, 2)),
        (Poly.constant(ctx, Fraction(3, 6)), Fraction(1, 4) * Poly.constant(ctx, 2)),
        (x1 * Fraction(2, 3) + x1 * Fraction(1, 3), x1),
        (Poly(ctx, {(2, 0): Fraction(1, 2)}).partial(1), x1),
        (Poly(ctx, {(1, 0): 6, (0, 1): 4}) * Fraction(1, 2),
         Poly(ctx, {(1, 0): Fraction(9, 3), (0, 1): Fraction(2)})),
        (x1 * Fraction(1, 3) - x1 * Fraction(1, 3), Poly.zero(ctx)),
        (Poly.constant(ctx, 0), Poly(ctx, {one: Fraction(0, 5)})),
    ]
    for a, b in pairs:
        _assert_canonical(a)
        _assert_canonical(b)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((ctx, frozenset(a.terms.items())))


def _fraction_str(p: Poly) -> str:
    """Printing from Fraction coefficients, the reference for ``str``."""
    if p.is_zero():
        return "0"
    out = ""
    for exp in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = p.terms[exp]
        mono = "*".join(f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                        for i, k in enumerate(exp) if k > 0)
        text = (str(abs(c)) if not mono else mono if abs(c) == 1
                else f"{abs(c)}*{mono}")
        if not out:
            out = ("-" if c < 0 else "") + text
        else:
            out += (" - " if c < 0 else " + ") + text
    return out


def test_str_matches_fraction_printing():
    ctx = Context(2)
    coeffs = [Fraction(1), Fraction(-1), Fraction(3), Fraction(-3),
              Fraction(1, 2), Fraction(-1, 2), Fraction(4, 6), Fraction(-7, 3)]
    exps = [(0, 0), (1, 0), (0, 1), (2, 1)]
    for c in coeffs:
        for e in exps:
            for d in coeffs[:3]:
                p = Poly(ctx, {e: c, (1, 1): d})
                assert str(p) == _fraction_str(p)
    local = random.Random(909)
    for _ in range(200):
        p = Poly(ctx, _random_model(local, 2, local.randint(0, 5)))
        assert str(p) == _fraction_str(p)


def test_public_constructor_refuses_a_repeated_vector():
    # two keys with one exponent tuple give it two coefficients, which
    # is ambiguous; a zero coefficient for the second key is not
    ctx = Context(2)
    with pytest.raises(ValueError):
        Poly(ctx, {(0, 1): Fraction(1, 2), range(2): 1})
    p = Poly(ctx, {(0, 1): Fraction(1, 2), range(2): 0})
    _assert_canonical(p)
    assert p == Poly(ctx, {(0, 1): Fraction(1, 2)})


def test_one_builder_adds_equal_keys_and_divides_the_content_out():
    # keys repeat, numerators cancel, and denominators arrive in any
    # order; the Fraction sum per key is the reference
    local = random.Random(19)
    for _ in range(300):
        rows = [(local.randrange(4), local.randint(-6, 6),
                 local.choice([1, 2, 3, 4, 6, 9]))
                for _ in range(local.randint(0, 8))]
        want: dict = {}
        for key, n, d in rows:
            want[key] = want.get(key, 0) + Fraction(n, d)
        num, den = _from_terms(rows)
        assert {k: Fraction(n, den) for k, n in num.items()} == \
            {k: c for k, c in want.items() if c}
        assert den > 0 and all(num.values())
        assert gcd(den, *num.values()) == 1
