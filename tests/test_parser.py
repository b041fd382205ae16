import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracspace import parser
from diracspace.poly import Context, Poly
from diracspace.calculus import Form, MultiVec, VField, _sort_sign
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


def test_exponent_ceiling_is_a_positioned_parse_error():
    # ((x1^64)^64)^8 = x1^32768 passes the 15 bits of a packed exponent
    ctx = Context(2)
    top = "((x1^64)^64)^7*(x1^64)^63*x1^63"
    value, _ = parse_expression(top, ctx)
    assert value == Poly(ctx, {(32767, 0): 1})
    with pytest.raises(ParseError, match="above 32767") as exc:
        parse_expression(top + "*x1", ctx)
    assert (exc.value.line, exc.value.col) == (1, len(top) + 1)
    with pytest.raises(ParseError, match="above 32767") as exc:
        parse_expression("((x1^64)^64)^8", ctx)
    assert exc.value.col == 14
    with pytest.raises(ParseError, match="above 32767"):
        parse_expression("((x1^64)^64)^64", ctx)
    value, _ = parse_expression("(x1^64)^2*dx2", ctx)
    assert str(value) == "x1^128*dx2"


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


# -- the parser's store against the dict-of-Poly store it replaced ------


class _DictTerms:
    """The deleted store: {(dx word, Dx word): Poly}, one Poly per pair
    of words, driven by the same grammar through ``atom``."""

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = terms if terms is not None else {}

    @staticmethod
    def atom(ctx, c=1, x=0, dx=(), Dx=()):
        p = Poly.variable(ctx, x) if x else Poly.constant(ctx, c)
        return _DictTerms(ctx, {(dx, Dx): p} if not p.is_zero() else {})

    def size(self):
        return sum(len(c.terms) for c in self.terms.values())

    def _put(self, out, key, c):
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            self._put(out, k, c)
        return _DictTerms(self.ctx, {k: c for k, c in out.items()
                                     if not c.is_zero()})

    def __neg__(self):
        return _DictTerms(self.ctx, {k: -c for k, c in self.terms.items()})

    def times(self, other, warnings):
        out = {}
        for (fa, va), ca in self.terms.items():
            for (fb, vb), cb in other.terms.items():
                sf, f = _sort_sign(fa + fb)
                sv, v = _sort_sign(va + vb)
                if sf == 0 or sv == 0:
                    word = fa + fb if sf == 0 else va + vb
                    warnings.append(
                        "repeated factor normalizes to zero: "
                        + "^".join(("dx" if sf == 0 else "Dx") + str(i)
                                   for i in word))
                    continue
                self._put(out, (f, v), (sf * sv) * (ca * cb))
        return _DictTerms(self.ctx, {k: c for k, c in out.items()
                                     if not c.is_zero()})


def _dict_parse(src, ctx, p=None):
    """``parse_expression`` as it was over `_DictTerms`, validating
    constructors included."""
    saved = parser._Terms
    parser._Terms = _DictTerms
    try:
        prs = parser._Parser(src, ctx)
        t = prs.parse()
    finally:
        parser._Terms = saved
    form_terms = {k: c for k, c in t.terms.items() if k[0]}
    field_terms = {k: c for k, c in t.terms.items() if k[1]}
    scalar = t.terms.get(((), ()), Poly.zero(ctx))
    if any(k[0] and k[1] for k in t.terms):
        raise ParseError("cannot mix dx and Dx factors in one term", 1, 1)
    form_degs = {len(k[0]) for k in form_terms}
    field_degs = {len(k[1]) for k in field_terms}
    if len(form_degs) > 1 or len(field_degs) > 1:
        raise ParseError("mixed degrees in one expression", 1, 1)
    fdeg = form_degs.pop() if form_degs else None
    vdeg = field_degs.pop() if field_degs else None
    form = Form(ctx, fdeg or 0,
                {k[0]: c for k, c in form_terms.items()}) if fdeg else None
    if vdeg is not None:
        mv = MultiVec(ctx, vdeg, {k[1]: c for k, c in field_terms.items()})
    else:
        mv = None
    if p is None:
        if mv is not None and form is None and scalar.is_zero():
            return (mv.to_vfield() if vdeg == 1 else mv), prs.warnings
        if mv is None and form is not None and scalar.is_zero():
            return form, prs.warnings
        if mv is None and form is None:
            return Poly(ctx, scalar.terms), prs.warnings
        raise ParseError("supply the order p to read X + alpha sections",
                         1, 1)
    if mv is not None and vdeg != 1:
        raise ParseError("section parts must be plain vector fields", 1, 1)
    X = mv.to_vfield() if mv is not None else VField.zero(ctx)
    if form is None:
        if not scalar.is_zero() and p != 0:
            raise ParseError(f"scalar part needs p = 0, got p = {p}", 1, 1)
        form = Form.from_poly(scalar) if p == 0 else Form.zero(ctx, p)
    elif not scalar.is_zero():
        raise ParseError("cannot mix a scalar with a form of degree > 0",
                         1, 1)
    if form.degree != p:
        raise ParseError(f"form part has degree {form.degree}, "
                         f"expected {p}", 1, 1)
    return SectionEp(p, X, form), prs.warnings


def _outcome(parse, src, ctx, p):
    try:
        value, warnings = parse(src, ctx, p)
    except ParseError as exc:
        return "error", str(exc)
    return value, type(value), str(value), sorted(warnings)


def _random_source(local, depth):
    if depth == 0 or local.random() < 0.3:
        kind = local.randrange(5)
        i = local.randint(1, 3)
        if kind == 0:
            return local.choice(["0", "1", "2", "1/2", "3/4", "0/5", "5/1"])
        return ("x", "dx", "Dx", "dx")[kind - 1] + str(i)
    shape = local.randrange(6)
    a = _random_source(local, depth - 1)
    if shape == 3:
        return f"-{a}"
    if shape == 4:
        return f"({a})^{local.randint(0, 3)}"
    b = _random_source(local, depth - 1)
    return f"({a}{local.choice('++-**^')}{b})"


def test_parser_store_matches_the_dict_of_poly_store():
    local = random.Random(19)
    # 100 terms: 100 * 100 pairs are within MAX_TERMS, 100 * 101 are not
    a = "+".join(f"x1^{i}*dx{j}" for i in range(50) for j in (1, 2))
    for src in (f"({a})*({a})", f"({a})*({a}+x2)"):
        want = _outcome(_dict_parse, src, Context(2), None)
        assert _outcome(parse_expression, src, Context(2), None) == want
    sources = ["(x1*dx1 + dx2 + x2*dx1 - x1*dx1)*(dx1 + dx2)"]
    sources += [_random_source(local, 4) for _ in range(1200)]
    counts = {"value": 0, "error": 0, "warned": 0}
    for src in sources:
        ctx = Context(local.randint(2, 3))
        for p in (None, 0, 1, 2):
            want = _outcome(_dict_parse, src, ctx, p)
            assert _outcome(parse_expression, src, ctx, p) == want, (src, p)
            counts["error" if want[0] == "error" else "value"] += 1
            counts["warned"] += want[0] != "error" and bool(want[3])
    assert min(counts.values()) >= 100, counts


def test_dropped_factor_warnings_follow_the_store_order():
    # the x1*dx1 terms cancel, so dx2 is the first surviving word of the
    # left factor; the dict-of-Poly store kept dx1's key first
    ctx = Context(2)
    v, warnings = parse_expression(
        "(x1*dx1 + dx2 + x2*dx1 - x1*dx1)*(dx1 + dx2)", ctx)
    assert str(v) == "(x2 - 1)*dx1^dx2"
    assert warnings == ["repeated factor normalizes to zero: dx2^dx2",
                        "repeated factor normalizes to zero: dx1^dx1"]
