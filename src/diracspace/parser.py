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
``MAX_PARSE_TERMS``; beyond any of these, on an exponent above
``poly.EXPONENT_CEILING`` and on a zero denominator, parsing stops with a
positioned ``ParseError``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .calculus import Form, MultiVec, VField, _wedge_idx
from .courant import SectionEp
from .poly import Context, Poly, _IntSum, _products, _reduced

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


class _Terms(_IntSum):
    """Sum of rational * monomial * dx-word * Dx-word: an `_IntSum`
    keyed by ((dx word, Dx word), packed exponents), each word sorted."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Context, num: dict, den: int = 1):
        """Trusted: ``num`` maps keys to nonzero ints over a positive
        ``den``; the content is divided out here."""
        self.ctx = ctx
        self._num, self._den = _reduced(num, den)

    @staticmethod
    def atom(ctx: Context, c=1, x: int = 0, dx: tuple = (),
             Dx: tuple = ()) -> "_Terms":
        """c times x_x (no variable when ``x`` is 0), ``dx`` and ``Dx``;
        ``c`` is an int or Fraction."""
        exp = 1 << ctx._layout.shifts[x - 1] if x else 0
        n, d = c.as_integer_ratio()
        return _Terms(ctx, {((dx, Dx), exp): n} if n else {}, d)

    def _like(self, num: dict, den: int = 1) -> "_Terms":
        return _Terms(self.ctx, num, den)

    def _check(self, other: "_Terms"):
        """Every operand comes from one parse, over one context."""

    def size(self) -> int:
        """Number of monomial terms."""
        return len(self._num)

    def times(self, other: "_Terms", warnings: list) -> "_Terms":
        """The product; each pair of words that repeats a factor is
        dropped with one line appended to ``warnings``."""
        dropped = set()

        def rule(wa, wb):
            (fa, va), (fb, vb) = wa, wb
            sf, f = _wedge_idx(fa, fb)
            sv, v = _wedge_idx(va, vb)
            if sf and sv:
                return sf * sv, (f, v)
            if (wa, wb) not in dropped:
                dropped.add((wa, wb))
                word = fa + fb if sf == 0 else va + vb
                warnings.append(
                    "repeated factor normalizes to zero: "
                    + "^".join(("dx" if sf == 0 else "Dx") + str(i)
                               for i in word))
            return 0, None

        return _Terms(self.ctx, *_products(self, other, rule))


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
        ``MAX_TERMS`` pairs of terms, bring the parse past
        ``MAX_PARSE_TERMS``, or raise an exponent past
        `poly.EXPONENT_CEILING`."""
        self.pairs += a.size() * b.size()
        if a.size() * b.size() > MAX_TERMS:
            raise ParseError(f"product of {a.size()} by {b.size()} terms "
                             f"exceeds {MAX_TERMS}", line, col)
        if self.pairs > MAX_PARSE_TERMS:
            raise ParseError(f"products multiply out more than "
                             f"{MAX_PARSE_TERMS} pairs of terms", line, col)
        try:
            return a.times(b, self.warnings)
        except ValueError as exc:   # an exponent past the ceiling
            raise ParseError(str(exc), line, col) from None

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
            out = _Terms.atom(self.ctx)
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
            return _Terms.atom(self.ctx, Fraction(_integer(a, line, col), den))
        if kind == "var":
            self.next()
            i = _integer(text[1:].strip("{}"), line, col)
            if not 1 <= i <= self.ctx.dim:
                raise ParseError(f"unknown variable {text}", line, col)
            return _Terms.atom(self.ctx, x=i)
        if kind in ("dx", "ddx"):
            self.next()
            i = _integer(text[2:].strip("{}"), line, col)
            if not 1 <= i <= self.ctx.dim:
                raise ParseError(f"unknown basis index {text}", line, col)
            return (_Terms.atom(self.ctx, dx=(i,)) if kind == "dx"
                    else _Terms.atom(self.ctx, Dx=(i,)))
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
    if any(f and v for (f, v), _ in t._num):
        raise ParseError("cannot mix dx and Dx factors in one term", 1, 1)
    form_num = {(f, e): n for ((f, _), e), n in t._num.items() if f}
    field_num = {(v, e): n for ((_, v), e), n in t._num.items() if v}
    scalar = Poly._raw(ctx, {e: n for ((f, v), e), n in t._num.items()
                             if not (f or v)}, t._den)
    form_degs = {len(f) for f, _ in form_num}
    field_degs = {len(v) for v, _ in field_num}
    if len(form_degs) > 1 or len(field_degs) > 1:
        raise ParseError("mixed degrees in one expression", 1, 1)
    fdeg = form_degs.pop() if form_degs else None
    vdeg = field_degs.pop() if field_degs else None
    form = Form._raw(ctx, fdeg, form_num, t._den) if fdeg else None
    kind = VField if vdeg == 1 else MultiVec
    mv = kind._raw(ctx, vdeg, field_num, t._den) if vdeg else None
    if p is None:
        if mv is not None and form is None and scalar.is_zero():
            return mv, parser.warnings
        if mv is None and form is not None and scalar.is_zero():
            return form, parser.warnings
        if mv is None and form is None:
            return scalar, parser.warnings
        raise ParseError("supply the order p to read X + alpha sections",
                         1, 1)
    # a section X + alpha of order p (the 0-form part is alpha when p == 0)
    if mv is not None and vdeg != 1:
        raise ParseError("section parts must be plain vector fields", 1, 1)
    X = mv if mv is not None else VField.zero(ctx)
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

