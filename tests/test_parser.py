import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracspace.poly import Context, Poly
from diracspace.calculus import Form, MultiVec, VField
from diracspace.courant import SectionEp
from diracspace.parser import (MAX_DEPTH, MAX_EXPONENT, MAX_TERMS,
                               ParseError, parse_expression)
from diracspace.sampling import (random_form, random_multivec, random_poly,
                                 random_vfield)

rng = random.Random(909)


def roundtrip(obj, ctx, p=None):
    s = str(obj)
    v1, _ = parse_expression(s, ctx, p)
    assert v1 == obj, f"{s!r} -> {str(v1)!r}"
    s2 = str(v1)
    v2, _ = parse_expression(s2, ctx, p)
    assert str(v2) == s2


def test_poly_roundtrip_1000():
    for _ in range(1000):
        ctx = Context(rng.randint(1, 4))
        roundtrip(random_poly(rng, ctx, rng.randint(0, 3)), ctx)


def test_form_roundtrip_1000():
    count = 0
    while count < 1000:
        ctx = Context(rng.randint(2, 4))
        k = rng.randint(1, ctx.dim)
        f = random_form(rng, ctx, k, max_deg=2)
        if f.is_zero():
            continue
        roundtrip(f, ctx)
        count += 1


def test_vfield_roundtrip_1000():
    count = 0
    while count < 1000:
        ctx = Context(rng.randint(2, 4))
        X = random_vfield(rng, ctx, max_deg=2)
        if X.is_zero():
            continue
        roundtrip(X, ctx)
        count += 1


def test_multivec_roundtrip_1000():
    count = 0
    while count < 1000:
        ctx = Context(rng.randint(2, 4))
        q = rng.randint(2, ctx.dim)
        Y = random_multivec(rng, ctx, q, max_deg=1)
        if Y.is_zero():
            continue
        roundtrip(Y, ctx)
        count += 1


def test_section_roundtrip_1000():
    for _ in range(1000):
        ctx = Context(rng.randint(2, 4))
        p = rng.randint(0, ctx.dim - 1)
        e = SectionEp(p, random_vfield(rng, ctx, max_deg=1),
                      random_form(rng, ctx, p, max_deg=1))
        roundtrip(e, ctx, p)


def test_nilpotent_square_warns_and_normalizes():
    ctx = Context(3)
    v, warnings = parse_expression("dx1^dx1", ctx)
    assert isinstance(v, Poly) or v.is_zero()
    assert warnings and "dx1" in warnings[0]


def test_dropped_factor_warns_once_per_product():
    # the power multiplies its base in k times; the base's own dropped
    # pair is reported once, whatever k is
    ctx = Context(3)
    once = ["repeated factor normalizes to zero: dx1^dx1"]
    for src, value in (("(dx1^dx1 + x1)^3", Poly.variable(ctx, 1) ** 3),
                       ("(dx1^dx1)^0", Poly.constant(ctx, 1)),
                       ("(dx1^dx1)^2", Poly.zero(ctx))):
        assert parse_expression(src, ctx) == (value, once)
    v, warnings = parse_expression("(Dx2*Dx2 + 1)*(dx1^dx1 + 1)", ctx)
    assert v == Poly.constant(ctx, 1)
    assert warnings == ["repeated factor normalizes to zero: Dx2^Dx2",
                        "repeated factor normalizes to zero: dx1^dx1"]


def test_wedge_antisymmetry_cancellation():
    ctx = Context(3)
    v, _ = parse_expression("dx2^dx1 + dx1^dx2", ctx)
    assert v.is_zero()


def test_power_binds_tighter_than_unary_minus():
    ctx = Context(2)
    v, _ = parse_expression("-x1^2", ctx)
    assert v == Fraction(-1) * Poly.variable(ctx, 1) * Poly.variable(ctx, 1)


def test_braced_indices_and_rationals():
    ctx = Context(12)
    v, _ = parse_expression("3/2*x{10}*dx{11}^dx{12}", ctx)
    assert isinstance(v, Form) and v.degree == 2


def test_section_classification():
    ctx = Context(3)
    v, _ = parse_expression("Dx1 + x2*dx1^dx3", ctx, p=2)
    assert isinstance(v, SectionEp) and v.p == 2
    v, _ = parse_expression("0", ctx, p=2)
    assert isinstance(v, SectionEp) and v.is_zero()


def test_whitespace_insensitive():
    ctx = Context(3)
    a, _ = parse_expression("x1*dx1 + 2*dx2", ctx)
    b, _ = parse_expression("  x1 * dx1+2* dx2 ", ctx)
    assert a == b


def test_errors_carry_position():
    ctx = Context(3)
    cases = ["x1 +", "dx1^Dx2", "dx1 + dx1^dx2", "(x1", "x1 $", "x4",
             "dx9", "x1 x2", "1/0", "(" * 5000 + "x1" + ")" * 5000,
             "x1^1000000", "9" * 5000, "((x1+x2+x3)^16)^16",
             "*".join(["(x1+x2+x3)^16"] * 16),
             "*".join(["(x1+x2+x3)"] * 200), "(x1+x2+x3)^64"]
    for src in cases:
        with pytest.raises(ParseError) as exc:
            parse_expression(src, ctx)
        assert exc.value.line >= 1 and exc.value.col >= 1


def test_error_column_points_at_problem():
    ctx = Context(3)
    with pytest.raises(ParseError) as exc:
        parse_expression("x1 $", ctx)
    assert exc.value.col == 4


def test_degree_one_multivec_roundtrip():
    # a parsed Dx-sum is a VField, which equals the MultiVec it prints from
    local = random.Random(4711)
    count = 0
    while count < 200:
        ctx = Context(local.randint(1, 4))
        Y = random_multivec(local, ctx, 1, max_deg=2)
        if Y.is_zero():
            continue
        roundtrip(Y, ctx)
        count += 1


def test_limits_are_inclusive():
    ctx = Context(2)
    nested = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert parse_expression(nested, ctx)[0] == Poly.variable(ctx, 1)
    with pytest.raises(ParseError):
        parse_expression("(" + nested + ")", ctx)
    power, _ = parse_expression(f"x2^{MAX_EXPONENT}", ctx)
    assert power == Poly(ctx, {(0, MAX_EXPONENT): Fraction(1)})
    with pytest.raises(ParseError) as exc:
        parse_expression(f"x2^{MAX_EXPONENT + 1}", ctx)
    assert exc.value.col == 4


def test_product_term_limit_is_inclusive():
    # a sum of 100 distinct monomials, times itself, multiplies out
    # exactly MAX_TERMS pairs; one more term is refused at the "*"
    ctx = Context(2)
    a = "+".join(f"x1^{i}*x2^{j}" for i in range(10) for j in range(10))
    assert MAX_TERMS == 100 * 100
    product, _ = parse_expression(f"({a})*({a})", ctx)
    assert product == parse_expression(a, ctx)[0] ** 2
    with pytest.raises(ParseError) as exc:
        parse_expression(f"({a})*({a}+x1^10)", ctx)
    assert exc.value.col == len(a) + 3


_TOKENS = ["x1", "x2", "x3", "dx1", "dx2", "dx3", "Dx1", "Dx2", "Dx3",
           "0", "1", "2", "3", "/", "^", "*", "+", "-", "(", ")", " "]

_NUMBERS = st.integers(0, 3).map(str)

_ATOMS = (st.sampled_from(_TOKENS[:9]) | _NUMBERS
          | st.tuples(_NUMBERS, _NUMBERS).map("/".join))


def _compound(inner):
    return (st.tuples(inner, st.sampled_from("+-*^"), inner).map("".join)
            | inner.map("({})".format) | inner.map("-{}".format)
            | st.tuples(inner, _NUMBERS).map("({0[0]})^{0[1]}".format))


# well-formed expressions over the tokens, and arbitrary token strings
_SOURCES = (st.recursive(_ATOMS, _compound, max_leaves=10)
            | st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join))


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(_SOURCES, st.sampled_from([None, 0, 1, 2, 3]))
def test_token_strings_parse_or_raise_parse_error(src, p):
    try:
        parse_expression(src, Context(3), p)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
