"""Graded-symplectic oracle for the twisted multibrackets.

An independent model of the brackets on TM + /\\^{r-1} T*M: polynomials
in commuting coordinates x_i and graded generators v_i (degree 1),
p_i (degree r-1), P_i (degree r), with the degree -r Poisson bracket
generated by

    {P_i, x_i} = 1 = -{x_i, P_i},    {p_i, v_i} = 1 = -(-1)^{r-1} {v_i, p_i}

extended as a biderivation of degree -r,

    {ab, c} = a{b, c} + (-1)^{|b| (|c| - r)} {a, c} b,
    {a, bc} = {a, b} c + (-1)^{(|a| - r) |b|} b {a, c},

so on two monomials it is a signed sum over conjugate factor pairs
(``_bracket_rule`` states it).  Forms embed as words in the v_i, vector
fields as multiples of the p_i, and S = sum_i v_i P_i satisfies
{S, S} = 0 with {S, xi} = d xi.  The n-ary brackets are recovered as
symmetrized derived brackets of delta = {S - H, .}; comparing them
against the direct formulas pins every convention choice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .calculus import (Form, VField, _sort_sign, contract, deRham,
                       lie_derivative)
from .courant import SectionEp, dorfman
from .linfty import GradedElem, TwistedSectionsFamily
from .poly import Context, _IntSum, _reduced, bernoulli
from .sampling import random_form, random_vfield

_KIND_DEG = {"v": lambda r: 1, "p": lambda r: r - 1, "P": lambda r: r}


def _gen_degree(gen, r: int) -> int:
    return _KIND_DEG[gen[0]](r)


@lru_cache(maxsize=4096)
def _normal(word: tuple, rp: int) -> tuple:
    """(Koszul sign, normal form) of a word of generators; ``rp`` is
    r mod 2, which fixes the parity of every generator."""
    return _sort_sign(word, lambda g: _gen_degree(g, rp) % 2)


class GPoly(_IntSum):
    """Polynomial in x_i, v_i, p_i, P_i.

    Stored as an `_IntSum` keyed by (exponents, word), the word in
    normal form.
    """

    __slots__ = ("r", "ctx")

    def __init__(self, r: int, ctx: Context, terms: dict | None = None):
        self.r = r
        self.ctx = ctx
        num: dict = {}
        den = 1
        for (e, gens), c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError("expected an integer or Fraction, got "
                                f"{type(c).__name__}")
            e = tuple(e)
            if len(e) != ctx.dim or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e} for dim {ctx.dim}")
            for g in gens:
                if not (len(g) == 2 and g[0] in _KIND_DEG
                        and isinstance(g[1], int) and 0 <= g[1] < ctx.dim):
                    raise ValueError(f"bad generator {g} for dim {ctx.dim}")
            sign, word = _normal(tuple(gens), r % 2)
            n, d = c.as_integer_ratio()
            if not (sign and n):
                continue
            if den % d:
                scale = d // gcd(den, d)
                for k in num:
                    num[k] *= scale
                den *= scale
            key = (e, word)
            num[key] = num.get(key, 0) + sign * n * (den // d)
        # words that share a normal form may cancel or leave a content
        out = GPoly._collect(r, ctx, num, den)
        self._num = out._num
        self._den = out._den

    @staticmethod
    def _raw(r: int, ctx: Context, num: dict, den: int = 1) -> "GPoly":
        """Trusted constructor for arithmetic results: ``num`` maps valid
        keys with normal words to nonzero ints and ``den`` is positive;
        the content is divided out here."""
        out = object.__new__(GPoly)
        out.r = r
        out.ctx = ctx
        out._num, out._den = _reduced(num, den)
        return out

    @staticmethod
    def _collect(r: int, ctx: Context, num: dict, den: int = 1) -> "GPoly":
        """`_raw` of an accumulated map whose numerators may be zero."""
        return GPoly._raw(r, ctx, {k: n for k, n in num.items() if n}, den)

    def _like(self, num: dict, den: int = 1) -> "GPoly":
        return GPoly._raw(self.r, self.ctx, num, den)

    @staticmethod
    def zero(r: int, ctx: Context) -> "GPoly":
        return GPoly._raw(r, ctx, {})

    def _check(self, other: "GPoly"):
        if not isinstance(other, GPoly):
            raise ValueError(f"expected a GPoly, got a {type(other).__name__}")
        if self.r != other.r or self.ctx != other.ctx:
            raise ValueError("graded context mismatch")

    def __mul__(self, other):
        if isinstance(other, GPoly):
            self._check(other)
            rp = self.r % 2
            num: dict = {}
            for (ea, ga), ca in self._num.items():
                for (eb, gb), cb in other._num.items():
                    s, word = _normal(ga + gb, rp)
                    if s:
                        key = (tuple(map(int.__add__, ea, eb)), word)
                        num[key] = num.get(key, 0) + s * ca * cb
            return GPoly._collect(self.r, self.ctx, num,
                                  self._den * other._den)
        return self._scale(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, GPoly) and self.r == other.r
                and self.ctx == other.ctx and self._den == other._den
                and self._num == other._num)

    def degree(self):
        """Total degree if homogeneous, else None."""
        degs = {sum(_gen_degree(g, self.r) for g in gens)
                for (_, gens) in self._num}
        return degs.pop() if len(degs) == 1 else (0 if not degs else None)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for (e, gens), n in sorted(self._num.items()):
            mono = "*".join([f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                             for i, k in enumerate(e) if k]
                            + [f"{g[0]}{g[1]}" for g in gens]) or "1"
            bits.append(f"{Fraction(n, self._den)}*{mono}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"GPoly({self})"


def _combine(r: int, ctx: Context, parts) -> GPoly:
    """The sum of s * g over the pairs (s, g) of ``parts``, s = 1 or -1,
    accumulated over the lcm of the denominators."""
    den = lcm(*(g._den for _, g in parts))
    acc: dict = {}
    get = acc.get
    for s, g in parts:
        scale = s * (den // g._den)
        for k, n in g._num.items():
            acc[k] = get(k, 0) + scale * n
    return GPoly._collect(r, ctx, acc, den)


def gbracket(a: GPoly, b: GPoly) -> GPoly:
    """The bracket {a, b}: for each pair of terms x^ea*ga and x^eb*gb,
    the entries of `_bracket_rule` (ga, gb), with the int numerators over
    a._den * b._den."""
    a._check(b)
    r = a.r
    out: dict = {}
    get = out.get
    add = int.__add__
    for (ea, ga), ca in a._num.items():
        for (eb, gb), cb in b._num.items():
            rule = _bracket_rule(ga, gb, r)
            if not rule:
                continue
            c = ca * cb
            e = tuple(map(add, ea, eb))
            for src, i, s, word in rule:
                if src:
                    k = (eb if src == 1 else ea)[i]
                    if not k:
                        continue
                    key = (e[:i] + (e[i] - 1,) + e[i + 1:], word)
                    n = s * k * c
                else:
                    key = (e, word)
                    n = s * c
                out[key] = get(key, 0) + n
    return GPoly._collect(r, a.ctx, out, a._den * b._den)


@lru_cache(maxsize=4096)
def _bracket_rule(ga: tuple, gb: tuple, r: int) -> tuple:
    """The bracket of x^ea*ga with x^eb*gb, summed over conjugate factor
    pairs, as entries (src, i, sign, word) that depend on the words only.
    An entry adds sign * x^(ea+eb) * word; for src 1 it is multiplied by
    eb[i] and for src 2 by ea[i], and the exponent of x_i is lowered by
    one (src 0 has i = None).  With |w| the summed degree of a word and
    D = |gb| - r:

      ga[j] against gb[l], {p_i, v_i} = 1 and {v_i, p_i} = (-1)^r:
        (-1)^{|ga[j+1:]| D + (|ga[j]| - r) |gb[:l]|}
        * x^(ea+eb) ga[:j] gb[:l] gb[l+1:] ga[j+1:]
      ga[j] = P_i against x^eb, {P_i, x^eb} = d_i x^eb:
        (-1)^{|ga[j+1:]| D} * x^ea d_i(x^eb) ga[:j] gb ga[j+1:]
      x^ea against gb[l] = P_i, {x^ea, P_i} = -d_i x^ea:
        -(-1)^{|ga| D + r |gb[:l]|} * d_i(x^ea) x^eb gb[:l] gb[l+1:] ga

    The signs are the two Leibniz rules of the module docstring, unrolled:
    the first one moves the bracket past ga[j+1:], the second one past
    gb[:l].  Each word is given in normal form, its Koszul sign folded
    into the entry's sign; an entry whose word vanishes is left out.
    """
    rp = r % 2
    dga = [_gen_degree(g, r) for g in ga]
    dgb = [_gen_degree(g, r) for g in gb]
    D = sum(dgb) - r
    rule = []

    def put(src, i, word, sign):
        s, word = _normal(word, rp)
        if s:
            rule.append((src, i, s * sign, word))

    after = sum(dga)
    for j, f in enumerate(ga):
        after -= dga[j]
        c = -1 if after * D % 2 else 1
        head, tail = ga[:j], ga[j + 1:]
        if f[0] == "P":
            put(1, f[1], head + gb + tail, c)
            continue
        before = 0
        for l, g in enumerate(gb):
            if g[1] == f[1] and f[0] + g[0] in ("pv", "vp"):
                s = (dga[j] - r) * before + (r if f[0] == "v" else 0)
                put(0, None, head + gb[:l] + gb[l + 1:] + tail,
                    -c if s % 2 else c)
            before += dgb[l]
    c = -1 if sum(dga) * D % 2 else 1
    before = 0
    for l, g in enumerate(gb):
        if g[0] == "P":
            put(2, g[1], gb[:l] + gb[l + 1:] + ga,
                c if r * before % 2 else -c)
        before += dgb[l]
    return tuple(rule)


# -- encoding the complex ----------------------------------------------


def encode_form(r: int, alpha: Form) -> GPoly:
    # a word of v's in increasing index order is in normal form
    return GPoly._raw(r, alpha.ctx, {
        (e, tuple(("v", i - 1) for i in idx)): n
        for (idx, e), n in alpha._num.items()}, alpha._den)


def encode_vfield(r: int, X: VField) -> GPoly:
    return GPoly._raw(r, X.ctx, {(e, (("p", i - 1),)): n
                                 for ((i,), e), n in X._num.items()}, X._den)


def encode_section(r: int, e: SectionEp) -> GPoly:
    return encode_vfield(r, e.X) + encode_form(r, e.alpha)


def decode(g: GPoly, p: int | None = None, section: bool = False):
    """Inverse of the encodings: a GPoly in the x_i, v_i, p_i lands back
    in a Form, a VField, or (mixed content) a SectionEp of order r - 1.
    ``p`` fixes the degree read off an identically zero input; ``section``
    forces a SectionEp even when one component vanishes."""
    ctx = g.ctx
    form_num: dict = {}
    field_num: dict = {}
    for (e, word), n in g._num.items():
        kinds = {w[0] for w in word}
        if "P" in kinds:
            raise ValueError("cannot decode a word containing P generators")
        if kinds == {"v"} or not kinds:
            # a normal word of v's has increasing indices
            form_num[(tuple(i + 1 for _, i in word), e)] = n
        elif kinds == {"p"} and len(word) == 1:
            field_num[((word[0][1] + 1,), e)] = n
        else:
            raise ValueError(f"undecodable word {word}")
    degs = {len(idx) for idx, _ in form_num}
    if len(degs) > 1:
        raise ValueError("mixed form degrees")
    deg = degs.pop() if degs else (p if p is not None else 0)
    alpha = Form._raw(ctx, deg, form_num, g._den)
    X = VField._raw(ctx, 1, field_num, g._den)
    if not field_num and not section:
        return alpha
    if not form_num:
        if not section and field_num:
            return X
        alpha = Form.zero(ctx, p if p is not None else g.r - 1)
    return SectionEp(alpha.degree, X, alpha)


def s_poly(r: int, ctx: Context) -> GPoly:
    zero_e = (0,) * ctx.dim
    terms = {(zero_e, (("v", i), ("P", i))): Fraction(1)
             for i in range(ctx.dim)}
    return GPoly(r, ctx, terms)


# -- derived brackets --------------------------------------------------


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def structure_constant(n: int) -> Fraction:
    """c_{n-1} = (-1)^{C(n+1,2)} B_{n-1} / (n-1)!."""
    sign = -1 if _binom2(n + 1) % 2 else 1
    return sign * bernoulli(n - 1) / factorial(n - 1)


ORACLE_MAX_ARITY = 5


def oracle_bracket(r: int, ctx: Context, elems, H: Form | None = None) -> GPoly:
    """Symmetrized derived bracket of S - H on encoded complex elements.

    ``elems`` is a list of (GPoly, complex degree k); the inner delta is
    the restriction of {S - H, .} to the top degree k = r - 1.  The
    Koszul-signed sum over the orderings of the elements that start with
    a top-degree one is regrouped by bilinearity into a sum over subsets
    (Voronov, math/0304038; Getzler, arXiv:1010.5859): with parities
    p_i = (k_i - r) mod 2, T[{}] = S - H and

        T[A] = sum_{j in A} (-1)^{p_j sum_{k in A, k > j} p_k} {T[A - j], a_j},

    where a term with A - j empty counts only for a top-degree a_j.
    Putting a_j last adds exactly its inversions against the larger
    indices in A, whatever the order before it, so T[A] is the signed
    sum over the orderings of A; a zero T[A] is dropped.  The result
    T[all] is converted from the symmetric to the skew family convention
    by (-1)^{C(n-1,2)} together with the decalage sign
    (-1)^{sum_i (n-i) d_i} built from the skew degrees d_i = k_i - r + 1.
    Where the structure constant vanishes (B_3 = B_5 = 0 at n = 4, 6) the
    result is zero and no bracket is taken.
    """
    n = len(elems)
    if n > ORACLE_MAX_ARITY:
        raise ValueError(f"arity {n} not supported (max {ORACLE_MAX_ARITY})")
    Sd = s_poly(r, ctx)
    if H is not None:
        Sd = Sd - encode_form(r, H)
    for g, _ in elems:
        Sd._check(g)
    if n == 1:
        return gbracket(Sd, elems[0][0])
    const = structure_constant(n)
    if not const:
        return GPoly.zero(r, ctx)
    top = sum(1 << i for i, (_, k) in enumerate(elems) if k == r - 1)
    odd = sum(1 << i for i, (_, k) in enumerate(elems) if (k - r) % 2)
    T = {0: Sd}
    for A in range(1, 1 << n):   # every A - j comes before A
        parts = []
        for j in range(n):
            rest = A ^ (1 << j)
            if rest > A or rest not in T or not (rest or top >> j & 1):
                continue
            neg = odd >> j & 1 and bin((odd & A) >> (j + 1)).count("1") % 2
            parts.append((-1 if neg else 1, gbracket(T[rest], elems[j][0])))
        if parts:
            TA = _combine(r, ctx, parts)
            if not TA.is_zero():
                T[A] = TA
    total = T.get((1 << n) - 1, GPoly.zero(r, ctx))
    dec = sum((n - i) * (k - r + 1) for i, (_, k) in enumerate(elems, 1))
    conv = -1 if (_binom2(n - 1) + dec) % 2 else 1
    return (conv * const) * total


def encode_element(r: int, a: GradedElem, ctx: Context | None = None):
    """GradedElem of the twisted-sections family -> (GPoly, complex degree)."""
    if a.payload is None:
        if ctx is None:
            raise ValueError("a context is needed to encode the zero element")
        return GPoly.zero(r, ctx), r - 1
    if a.degree == 0:
        return encode_section(r, a.payload), r - 1
    return encode_form(r, a.payload), r - 1 + a.degree


def oracle_compare(F: TwistedSectionsFamily, tuples) -> list[str]:
    """Witnesses where the derived-bracket oracle disagrees with the
    direct multibracket formulas on sample tuples."""
    r, ctx = F.r, F.ctx
    H = F.H if not F.H.is_zero() else None
    witnesses = []
    for tup in tuples:
        enc = [encode_element(r, a, ctx) for a in tup]
        got = oracle_bracket(r, ctx, enc, H)
        want = encode_element(r, F.l(list(tup)), ctx)[0]
        if got != want:
            witnesses.append(
                f"arity {len(tup)}: oracle {got} != direct {want}")
    return witnesses


# -- structural facts about the graded model ---------------------------


def graded_facts(r: int, ctx: Context, rng, samples: int = 5) -> dict:
    """Spot-check the structural identities of the graded model:
    the pairing and derived-bracket formulas, the vanishing patterns,
    the encoding of d, and the nested brackets of a twist form."""
    S = s_poly(r, ctx)
    report: dict = {}
    report["S_square_zero"] = gbracket(S, S).is_zero()
    wit = []
    for t in range(samples):
        k1 = rng.randrange(0, r)
        k2 = rng.randrange(0, r)
        X1, X2 = (random_vfield(rng, ctx, 1) for _ in range(2))
        xi1 = random_form(rng, ctx, k1, max_deg=1)
        xi2 = random_form(rng, ctx, k2, max_deg=1)
        a = encode_vfield(r, X1) + encode_form(r, xi1)
        b = encode_vfield(r, X2) + encode_form(r, xi2)
        # {X1 + xi1, X2 + xi2} = i_X1 xi2 + (-1)^{r-1-k1} i_X2 xi1
        sgn = -1 if (r - 1 - k1) % 2 else 1
        want = encode_form(r, contract(X1, xi2)) \
            + sgn * encode_form(r, contract(X2, xi1))
        if gbracket(a, b) != want:
            wit.append(f"pairing fact: k1={k1}, k2={k2}")
        # {S, xi} = d xi
        if gbracket(S, encode_form(r, xi1)) != encode_form(r, deRham(xi1)):
            wit.append(f"{{S, xi}} != d xi at degree {k1}")
        # {{S, X1}, xi2} = L_X1 xi2 and {{S, xi1}, X2} = -(-1)^{r-1-k1} i_X2 d xi1
        if gbracket(gbracket(S, encode_vfield(r, X1)),
                    encode_form(r, xi2)) != encode_form(
                        r, lie_derivative(X1, xi2)):
            wit.append(f"{{{{S, X}}, xi}} != L_X xi at degree {k2}")
        if gbracket(gbracket(S, encode_form(r, xi1)),
                    encode_vfield(r, X2)) != (
                        -sgn) * encode_form(r, contract(X2, deRham(xi1))):
            wit.append(f"{{{{S, xi}}, X}} fact fails at degree {k1}")
    report["pairing_and_derived"] = wit
    # Dorfman from the double bracket on full sections
    wit = []
    for t in range(samples):
        e1 = SectionEp(r - 1, random_vfield(rng, ctx, 1),
                       random_form(rng, ctx, r - 1, max_deg=1))
        e2 = SectionEp(r - 1, random_vfield(rng, ctx, 1),
                       random_form(rng, ctx, r - 1, max_deg=1))
        got = gbracket(gbracket(S, encode_section(r, e1)),
                       encode_section(r, e2))
        if got != encode_section(r, dorfman(e1, e2)):
            wit.append("double bracket != Dorfman")
    report["dorfman"] = wit
    # vanishing: {S, a1, ..., an} for n >= 3 dies unless exactly one of
    # the first three entries is a form and the rest are vector fields
    wit = []
    for n in (3, 4):
        for t in range(samples):
            kinds = [rng.randrange(0, 2) for _ in range(n)]
            enc, forms = [], 0
            for kind in kinds:
                if kind:
                    forms += 1
                    enc.append(encode_form(
                        r, random_form(rng, ctx, r - 1, max_deg=1)))
                else:
                    enc.append(encode_vfield(r, random_vfield(rng, ctx, 1)))
            cur = S
            for g in enc:
                cur = gbracket(cur, g)
            may_live = forms <= 1 and (forms == 0 or 1 in kinds[:3])
            if not may_live and not cur.is_zero():
                wit.append(f"nested S bracket survives on kinds {kinds}")
    report["vanishing"] = wit
    # nested twist brackets: {H, X1, ..., Xn} = (-1)^{C(n,2)} i_Xn ... i_X1 H
    wit = []
    Hf = random_form(rng, ctx, r + 1, max_deg=1)
    He = encode_form(r, Hf)
    for n in (1, 2, 3):
        for t in range(samples):
            Xs = [random_vfield(rng, ctx, 1) for _ in range(n)]
            cur = He
            acc = Hf
            for X in Xs:
                cur = gbracket(cur, encode_vfield(r, X))
                acc = contract(X, acc)
            sgn = -1 if _binom2(n) % 2 else 1
            if cur != sgn * encode_form(r, acc):
                wit.append(f"twist fact fails at n={n}")
            mixed = gbracket(cur, encode_form(
                r, random_form(rng, ctx, r - 1, max_deg=1)))
            if not mixed.is_zero():
                wit.append(f"twist bracket with a form survives at n={n}")
    report["twist"] = wit
    report["status"] = ("pass" if report["S_square_zero"] and not any(
        report[k] for k in ("pairing_and_derived", "dorfman",
                            "vanishing", "twist")) else "fail")
    return report


def derived_check(r: int, ctx: Context, rng, H: Form | None = None,
                  samples: int = 5) -> dict:
    """Full report on the graded model: structural facts, the encode /
    decode round trip, and the master equation for the twisted generator
    ({S - H, S - H} = -2 dH, so it vanishes exactly when H is closed)."""
    report = graded_facts(r, ctx, rng, samples=samples)
    report["pipeline"] = "derived-bracket"
    wit = []
    for t in range(samples):
        k = rng.randrange(0, r)
        xi = random_form(rng, ctx, k, max_deg=1)
        if decode(encode_form(r, xi), p=k) != xi:
            wit.append(f"form round trip fails at degree {k}")
        X = random_vfield(rng, ctx, 1)
        if not X.is_zero() and decode(encode_vfield(r, X)) != X:
            wit.append("vector field round trip fails")
        e = SectionEp(r - 1, X, random_form(rng, ctx, r - 1, max_deg=1))
        if decode(encode_section(r, e), p=r - 1, section=True) != e:
            wit.append("section round trip fails")
    report["decode_encode"] = wit
    Sd = s_poly(r, ctx)
    if H is not None:
        Sd = Sd - encode_form(r, H)
    master = gbracket(Sd, Sd)
    dH = deRham(H) if H is not None else None
    want = (GPoly.zero(r, ctx) if dH is None
            else Fraction(-2) * encode_form(r, dH))
    report["master_equation"] = (master == want)
    report["twist_closed"] = dH is None or dH.is_zero()
    report["master_zero_iff_closed"] = (
        master.is_zero() == report["twist_closed"])
    ok = (report["status"] == "pass" and not wit
          and report["master_equation"] and report["master_zero_iff_closed"])
    report["status"] = "pass" if ok else "fail"
    return report
