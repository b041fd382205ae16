"""Expression grammar for polynomials, forms, fields and sections.

Tokens: variables ``x1..x9`` / ``x{10}``, basis forms ``dx<i>``, basis
fields ``Dx<i>``, rationals ``p/q``, wedge/product ``^`` and ``*``
(one graded-commutative product; ``x1^2`` is a power), ``+``/``-`` and
parentheses; whitespace-insensitive.  ``parse_expression`` classifies
the normalized result as a Poly, Form, VField, MultiVec or (given the
order p) a SectionEp.  Nilpotent squares such as ``dx1^dx1`` normalize
to zero with a warning.  The canonical printers are the classes' str();
parse o print o parse = parse.  Parentheses and unary minus signs nest at
most ``MAX_DEPTH`` deep, a power ``^n`` has ``n <= MAX_EXPONENT``, and a
product (each step of a power included) multiplies out at most
``MAX_TERMS`` pairs of terms, and all products of one parse at most
``MAX_PARSE_TERMS``; beyond any of these, and on a zero denominator,
parsing stops with a positioned ``ParseError``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .calculus import Form, MultiVec, VField, _sort_sign
from .courant import SectionEp
from .poly import Context, Poly

MAX_DEPTH = 100     # nested parentheses and unary minus signs
MAX_EXPONENT = 64   # largest n in a power x^n
MAX_TERMS = 10_000  # term pairs one product multiplies out
MAX_PARSE_TERMS = 40_000  # term pairs all products of one parse multiply out


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line, self.col = line, col


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<dx>dx(?:\d+|\{\d+\}))
  | (?P<ddx>Dx(?:\d+|\{\d+\}))
  | (?P<var>x(?:\d+|\{\d+\}))
  | (?P<op>[-+*^()])
""", re.VERBOSE)


def _integer(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:   # more digits than int() converts
        raise ParseError(f"number of {len(digits)} digits is too long",
                         line, col) from None


def tokenize(src: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


class _Terms:
    """Sum of coefficient * dx-word * Dx-word, sign-normalized."""

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        self.terms = terms if terms is not None else {}

    @staticmethod
    def scalar(ctx: Context, p: Poly) -> "_Terms":
        return _Terms(ctx, {((), ()): p} if not p.is_zero() else {})

    @staticmethod
    def generator(ctx: Context, kind: str, i: int) -> "_Terms":
        if not 1 <= i <= ctx.dim:
            raise ValueError(f"index {i} out of range 1..{ctx.dim}")
        key = ((i,), ()) if kind == "dx" else ((), (i,))
        return _Terms(ctx, {key: Poly.constant(ctx, 1)})

    def size(self) -> int:
        """Number of monomial terms over all coefficients."""
        return sum(len(c.terms) for c in self.terms.values())

    def _put(self, out, key, c):
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c

    def __add__(self, other: "_Terms") -> "_Terms":
        out = dict(self.terms)
        for k, c in other.terms.items():
            self._put(out, k, c)
        return _Terms(self.ctx, {k: c for k, c in out.items()
                                 if not c.is_zero()})

    def __neg__(self) -> "_Terms":
        return _Terms(self.ctx, {k: -c for k, c in self.terms.items()})

    def times(self, other: "_Terms", warnings: list) -> "_Terms":
        """The product; each pair of terms that repeats a factor is
        dropped with a line appended to ``warnings``."""
        out: dict = {}
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
        return _Terms(self.ctx, {k: c for k, c in out.items()
                                 if not c.is_zero()})


class _Parser:
    def __init__(self, src: str, ctx: Context):
        self.tokens = tokenize(src)
        self.ctx = ctx
        self.pos = 0
        self.depth = 0
        self.pairs = 0   # term pairs multiplied out so far
        self.warnings = []   # one line per dropped pair of terms

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)

    def multiply(self, a: _Terms, b: _Terms, line: int, col: int) -> _Terms:
        """``a * b``, refused when it would multiply out more than
        ``MAX_TERMS`` pairs of terms, or bring the parse past
        ``MAX_PARSE_TERMS``."""
        self.pairs += a.size() * b.size()
        if a.size() * b.size() > MAX_TERMS:
            raise ParseError(f"product of {a.size()} by {b.size()} terms "
                             f"exceeds {MAX_TERMS}", line, col)
        if self.pairs > MAX_PARSE_TERMS:
            raise ParseError(f"products multiply out more than "
                             f"{MAX_PARSE_TERMS} pairs of terms", line, col)
        return a.times(b, self.warnings)

    def descend(self):
        """Enter one more level of nesting at the current token."""
        if self.depth == MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH} levels")
        self.depth += 1

    def parse(self) -> _Terms:
        out = self.sum_expr()
        if self.peek()[0] != "end":
            self.error(f"unexpected token {self.peek()[1]!r}")
        return out

    def sum_expr(self) -> _Terms:
        neg = False
        if self.peek()[:2] == ("op", "-"):
            self.next()
            neg = True
        elif self.peek()[:2] == ("op", "+"):
            self.next()
        out = self.term()
        if neg:
            out = -out
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.next()[1]
            t = self.term()
            out = out + (-t if op == "-" else t)
        return out

    def term(self) -> _Terms:
        out = self.power()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "^"):
            _, _, line, col = self.next()
            out = self.multiply(out, self.power(), line, col)
        return out

    def power(self) -> _Terms:
        # unary minus binds looser than a power: -x1^2 is -(x1^2)
        if self.peek()[:2] == ("op", "-"):
            self.descend()
            self.next()
            out = -self.power()
            self.depth -= 1
            return out
        base = self.atom()
        # x1^2 means a square: ^ followed by a bare integer is a power
        if (self.peek()[:2] == ("op", "^")
                and self.tokens[self.pos + 1][0] == "num"
                and "/" not in self.tokens[self.pos + 1][1]):
            self.next()
            _, digits, line, col = self.next()
            k = _integer(digits, line, col)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}",
                                 line, col)
            out = _Terms.scalar(self.ctx, Poly.constant(self.ctx, 1))
            for _ in range(k):
                out = self.multiply(out, base, line, col)
            return out
        return base

    def atom(self) -> _Terms:
        kind, text, line, col = self.peek()
        if kind == "num":
            self.next()
            a, _, b = text.partition("/")
            den = _integer(b, line, col) if b else 1
            if den == 0:
                raise ParseError("division by zero", line, col)
            val = Fraction(_integer(a, line, col), den)
            return _Terms.scalar(self.ctx, Poly.constant(self.ctx, val))
        if kind == "var":
            self.next()
            i = _integer(text[1:].strip("{}"), line, col)
            if not 1 <= i <= self.ctx.dim:
                raise ParseError(f"unknown variable {text}", line, col)
            return _Terms.scalar(self.ctx, Poly.variable(self.ctx, i))
        if kind in ("dx", "ddx"):
            self.next()
            i = _integer(text[2:].strip("{}"), line, col)
            if not 1 <= i <= self.ctx.dim:
                raise ParseError(f"unknown basis index {text}", line, col)
            return _Terms.generator(self.ctx, "dx" if kind == "dx" else "Dx",
                                    i)
        if (kind, text) == ("op", "("):
            self.descend()
            self.next()
            out = self.sum_expr()
            if self.peek()[:2] != ("op", ")"):
                self.error("expected ')'")
            self.next()
            self.depth -= 1
            return out
        self.error(f"unexpected token {text!r}" if text else "unexpected end "
                   "of input")


def parse_expression(src: str, ctx: Context, p: int | None = None):
    """Parse and classify; returns (value, warnings).

    The value is a Poly, Form, VField or MultiVec according to the basis
    content; a mix of degree-1 field terms and degree-p form terms with
    ``p`` supplied yields a SectionEp.
    """
    parser = _Parser(src, ctx)
    t = parser.parse()
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
            return (mv.to_vfield() if vdeg == 1 else mv), parser.warnings
        if mv is None and form is not None and scalar.is_zero():
            return form, parser.warnings
        if mv is None and form is None:
            return Poly(ctx, scalar.terms), parser.warnings
        raise ParseError("supply the order p to read X + alpha sections",
                         1, 1)
    # a section X + alpha of order p (the 0-form part is alpha when p == 0)
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
    return SectionEp(p, X, form), parser.warnings

