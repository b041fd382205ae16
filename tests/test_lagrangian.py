import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from diracspace.poly import Context
from diracspace.calculus import Form, MultiVec, contract, wedge
from diracspace.courant import SectionPr, multi_bracket, multi_pairing
from diracspace.lagrangian import (LagrangianPair, LinSubspace,
                                   _omega_extension_to_p_forms,
                                   _pairing_tensor,
                                   _tuples, annihilator, classify, const,
                                   const_vfield, coords, extend_to_form,
                                   from_pair, multidirac_tier,
                                   nambu_dirac_check, norom_subspace, perp,
                                   perp_tier, random_lagrangian, to_pair)
from diracspace.linalg import kernel_basis, solve, span_basis
from diracspace.sampling import random_constant_form

rng = random.Random(505)


def form_eval(a, vecs):
    # a constant k-form evaluated on k coordinate vectors
    for v in vecs:
        a = contract(const_vfield(a.ctx, v), a)
    return coords(a.as_degree(0, "the evaluated form"))[0]


def test_perp_fixed_points():
    # the tangent factor and the form factor are each self-orthogonal
    L = LinSubspace(3, 1, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                           [0, 0, 1, 0, 0, 0]])
    assert perp(L) == L
    L0 = LinSubspace(3, 2, [[0, 0, 0] + row
                            for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1])])
    assert perp(L0) == L0
    assert classify(L0)["lagrangian"]


def test_graph_of_form_is_lagrangian():
    ctx = Context(3)
    w = const(Form, ctx, 2, [Fraction(2), Fraction(-1), Fraction(3)])
    elems = []
    for i in range(3):
        v = [Fraction(0)] * 3
        v[i] = Fraction(1)
        X = const_vfield(ctx, v)
        elems.append((X.to_multivec(), -contract(X, w)))
    L = LinSubspace.from_elements(3, 1, elems)
    c = classify(L)
    assert c["lagrangian"] and c["easychar"]
    assert perp(L) == L


def test_roundtrip_and_dimension_formula():
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        p = rng.choice([1, 2, 3])
        if p > n:
            continue
        L = random_lagrangian(rng, n, p)
        c = classify(L)
        assert c["lagrangian"] and c["easychar"]
        pair = to_pair(L)
        L2 = from_pair(pair)
        assert L2 == L
        assert to_pair(L2) == pair
        S = L.tangent_part()
        assert L.dim() == len(S) + comb(n - len(S), p)


def test_classify_verdicts_agree_on_random_subspaces():
    for _ in range(150):
        n = rng.choice([2, 3])
        p = rng.choice([1, 2])
        if p > n:
            continue
        amb = n + comb(n, p)
        k = rng.randint(0, amb)
        rows = [[Fraction(rng.randint(-1, 1)) for _ in range(amb)]
                for _ in range(k)]
        c = classify(LinSubspace(n, p, rows))
        assert c["lagrangian"] == c["easychar"]


def test_classify_exhaustive_small_family():
    # all subspaces of T + T* over a 1-dimensional base with entries in
    # {-1, 0, 1}: both characterizations must agree everywhere
    for rows in itertools.product(
            itertools.product((-1, 0, 1), repeat=2), repeat=2):
        c = classify(LinSubspace(1, 1, [list(r) for r in rows]))
        assert c["lagrangian"] == c["easychar"]


def test_tier_duality():
    for _ in range(15):
        n = rng.choice([3, 4])
        p = rng.choice([2, 3])
        if p > n:
            continue
        L = random_lagrangian(rng, n, p)
        tiers = [multidirac_tier(L, r) for r in range(1, p + 1)]
        assert tiers[0] == L
        for r in range(1, p + 1):
            for s in range(1, p + 1):
                if r + s <= p + 1:
                    assert perp_tier(tiers[s - 1], r) == tiers[r - 1]


def _combine(cs, basis, amb):
    v = [Fraction(0)] * amb
    for c, row in zip(cs, basis):
        v = [a + c * b for a, b in zip(v, row)]
    return v


def _reference_parts(L):
    """Row-reduction reference for the echelon split: the rref of the
    tangent projection, the kernel-based form intersection, and the
    member of L over each tangent basis vector found with `solve`."""
    nm = comb(L.n, L.r)
    amb = L.ambient_dim()
    tangent = span_basis([row[:nm] for row in L.basis])
    block = [[row[c] for row in L.basis] for c in range(nm)]
    forms = []
    if L.basis:
        forms = span_basis([_combine(cs, L.basis, amb)[nm:]
                            for cs in kernel_basis(block, len(L.basis))])
    over = []
    for s in tangent:
        cs = solve(block, s)
        assert cs is not None
        over.append(_combine(cs, L.basis, amb))
    return tangent, forms, over


def _reference_betas(pair):
    """The beta_i of `from_pair` as one k*C(n,p)-column system."""
    n, p, S = pair.n, pair.p, pair.S
    ctx, k = Context(n), len(pair.S)
    if k == 0:
        return []
    np_ = comb(n, p)
    rows, rhs = [], []
    for i in range(k):
        for j in range(k):
            target = coords(pair.omega_at(i, j))
            cols = [coords(contract(const_vfield(ctx, S[j]),
                                    Form.basis(ctx, idx)))
                    for idx in _tuples(n, p)]
            for t in range(len(target)):
                row = [Fraction(0)] * (k * np_)
                for c in range(np_):
                    row[i * np_ + c] = cols[c][t]
                rows.append(row)
                rhs.append(target[t])
    sol = solve(rows, rhs)
    if sol is None:
        return None
    return [const(Form, ctx, p, sol[i * np_:(i + 1) * np_])
            for i in range(k)]


def _random_rows(local, amb):
    shape = local.choice(["empty", "sparse", "dense"])
    if shape == "empty":
        return []
    rows = []
    for _ in range(local.randint(1, amb + 1)):
        row = [0] * amb
        for c in (local.sample(range(amb), local.randint(1, 2))
                  if shape == "sparse" else range(amb)):
            row[c] = Fraction(local.randint(-2, 2), local.choice([1, 1, 3]))
        rows.append(row)
    return rows


def test_echelon_split_matches_row_reduction_reference():
    local = random.Random(5050)
    subspaces = []
    for _ in range(400):
        n = local.randint(1, 4)
        p = local.randint(1, n)
        r = local.randint(1, p)
        amb = comb(n, r) + comb(n, p + 1 - r)
        subspaces.append(LinSubspace(n, p, _random_rows(local, amb), r))
    for _ in range(12):
        n = local.choice([2, 3, 4])
        p = local.randint(1, min(n, 3))
        L = random_lagrangian(local, n, p)
        subspaces += [multidirac_tier(L, r) for r in range(1, p + 1)]
    seen = set()
    for L in subspaces:
        seen.add((L.r, L.dim() == 0, L.dim() == L.ambient_dim()))
        tangent, forms, over = _reference_parts(L)
        assert L.tangent_part() == tangent
        assert L.form_intersection() == forms
        assert L.basis[:len(tangent)] == over
        if L.r == 1 and perp(L) == L:
            pair = to_pair(L)
            assert pair.S == tangent
            assert _omega_extension_to_p_forms(pair) == \
                _reference_betas(pair)
    assert {r for r, _, _ in seen} == {1, 2, 3, 4}
    assert any(empty for _, empty, _ in seen)
    assert any(full for _, _, full in seen)


def test_extend_to_form_restriction():
    ctx = Context(3)
    beta = extend_to_form(3, 1, [[1, 0, 0]], [Form.basis(ctx, (2,))])
    assert form_eval(beta, [[1, 0, 0], [0, 1, 0]]) == 1
    assert form_eval(beta, [[1, 0, 0], [0, 0, 1]]) == 0


def test_extend_to_form_random_restriction():
    for _ in range(25):
        n = rng.choice([3, 4])
        p = rng.choice([1, 2])
        ctx = Context(n)
        k = rng.randint(1, n - 1)
        S = span_basis([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                        for _ in range(k)])
        if not S:
            continue
        w0 = random_constant_form(rng, ctx, p + 1)
        betas = [contract(const_vfield(ctx, row), w0) for row in S]
        w = extend_to_form(n, p, S, betas)
        for row, beta in zip(S, betas):
            assert contract(const_vfield(ctx, row), w) == beta


def test_plane_with_conormal_volume_example():
    # a 2-plane with a degenerate 3-form: dim L = 2 + C(2,2) = 3 and the
    # top-tier span condition fails
    ctx4 = Context(4)
    om = Form.basis(ctx4, (1, 2, 3))
    L = norom_subspace(4, 2, [[1, 0, 0, 0], [0, 1, 0, 0]], om)
    assert L.dim() == 3
    c = classify(L)
    assert c["lagrangian"]
    nd = nambu_dirac_check(L)
    assert nd["iso_weak"]
    assert not nd["hismax"]


def _symbolic_wedges(cls, ctx, rows, k):
    """All k-fold wedges of the constant degree-1 ``cls`` of the rows,
    built with `const` and `wedge`."""
    ones = [const(cls, ctx, 1, row) for row in rows]
    out = []
    for combo in itertools.combinations(ones, k):
        w = const(cls, ctx, 0, [1])
        for f in combo:
            w = wedge(w, f)
        out.append(w)
    return out


def test_norom_reads_a_zero_omega_of_any_degree():
    # a zero omega is the zero (p+1)-form: L = S + /\\^p S°
    for n, p, S in [(4, 2, [[1, 0, 0, 0], [0, 1, 0, 0]]), (3, 1, [[1, 1, 0]]),
                    (3, 3, []), (3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])]:
        ctx = Context(n)
        want = norom_subspace(n, p, S, Form.zero(ctx, p + 1))
        for d in (0, 5):
            assert norom_subspace(n, p, S, Form.zero(ctx, d)) == want
        assert want == LinSubspace.from_elements(n, p, [
            (const(MultiVec, ctx, 1, s), Form.zero(ctx, p)) for s in S] + [
            (MultiVec.zero(ctx, 1), xi)
            for xi in _symbolic_wedges(Form, ctx, annihilator(n, S), p)])


def test_nambu_check_passes_on_graphs():
    ctx = Context(3)
    w = const(Form, ctx, 2, [Fraction(1), Fraction(0), Fraction(0)])
    elems = []
    for i in range(3):
        v = [Fraction(0)] * 3
        v[i] = Fraction(1)
        X = const_vfield(ctx, v)
        elems.append((X.to_multivec(), -contract(X, w)))
    L = LinSubspace.from_elements(3, 1, elems)
    nd = nambu_dirac_check(L)
    assert nd["iso_weak"] and nd["hismax"]


def test_tier_requires_valid_range():
    L = random_lagrangian(rng, 3, 2)
    with pytest.raises(ValueError):
        multidirac_tier(L, 3)


def test_tier_overflow_boundaries():
    # at p = 3 the pairing and perp_tier take tiers with r + s = p + 1 and
    # the bracket those with r + s - 1 = p; one step above each refuses
    # with its own message.  perp_tier is refused on the zero subspace,
    # where no pairing is taken, so its own guard is the one that acts.
    ctx, p = Context(4), 3

    def unit(r):
        return SectionPr(p, r, MultiVec.basis(ctx, tuple(range(1, r + 1))),
                         Form.basis(ctx, tuple(range(1, p + 2 - r))))

    assert multi_pairing(unit(2), unit(2)).degree == 0
    assert multi_bracket(unit(2), unit(2)).r == 3
    L = LinSubspace(4, p, [[1] + [0] * 11], 2)
    assert perp_tier(L, 2).r == 2
    for r, s in ((2, 3), (3, 2)):
        with pytest.raises(ValueError, match="tier overflow"):
            multi_pairing(unit(r), unit(s))
        with pytest.raises(ValueError, match="tier overflow"):
            multi_bracket(unit(r), unit(s))
        with pytest.raises(ValueError, match="tier overflow"):
            perp_tier(LinSubspace(4, p, [], s), r)


def test_extend_to_form_vanishes_on_the_complement():
    # iota_{s_i} omega = beta_i together with omega = 0 on (p+1)-tuples
    # from the complement annihilator(n, S) determines omega uniquely
    local = random.Random(5151)
    seen = set()
    for _ in range(60):
        n = local.randint(1, 4)
        p = local.randint(1, n)
        ctx = Context(n)
        S = span_basis([[Fraction(local.randint(-2, 2)) for _ in range(n)]
                        for _ in range(local.randint(0, n))])
        w0 = random_constant_form(local, ctx, p + 1)
        betas = [contract(const_vfield(ctx, row), w0) for row in S]
        w = extend_to_form(n, p, S, betas)
        assert w.is_zero() or w.degree == p + 1
        for row, beta in zip(S, betas):
            assert contract(const_vfield(ctx, row), w) == beta
        complement = annihilator(n, S)
        for vecs in itertools.combinations(complement, p + 1):
            assert form_eval(w, list(vecs)) == 0
        if not S:
            assert w.is_zero()
        if len(S) == n:
            assert w == w0
        seen.add("empty" if not S else "full" if len(S) == n else
                 "split" if len(complement) > p else "partial")
    assert seen == {"empty", "full", "split", "partial"}


def test_extend_to_form_refuses_inconsistent_betas():
    ctx = Context(3)
    e1, e2 = [1, 0, 0], [0, 1, 0]
    dx1, dx2 = Form.basis(ctx, (1,)), Form.basis(ctx, (2,))
    # iota_{s_1} beta_1 must vanish
    with pytest.raises(ValueError):
        extend_to_form(3, 1, [e1], [dx1])
    # iota_{s_2} beta_1 = 1 = iota_{s_1} beta_2 is not skew
    with pytest.raises(ValueError):
        extend_to_form(3, 1, [e1, e2], [dx2, dx1])
    # a nonzero top form cannot be a contraction of a (n+1)-form
    ctx2 = Context(2)
    top = Form.basis(ctx2, (1, 2))
    with pytest.raises(ValueError):
        extend_to_form(2, 2, [[1, 0], [0, 1]], [top, Form.zero(ctx2, 2)])
    # beta_2 moved off the contractions of one form
    local = random.Random(5152)
    ctx4 = Context(4)
    S = [[1, 0, 0, 0], [0, 1, 0, 0]]
    for _ in range(10):
        w0 = random_constant_form(local, ctx4, 3)
        betas = [contract(const_vfield(ctx4, row), w0) for row in S]
        betas[1] = betas[1] + Form.basis(ctx4, (1, 3))
        with pytest.raises(ValueError):
            extend_to_form(4, 2, S, betas)


def test_entries_must_be_integers_or_fractions():
    # a float or a string entry is refused, as Poly.constant refuses it
    ctx = Context(2)
    w = Form.basis(ctx, (1, 2))
    for bad in (0.1, "1/3"):
        for build in (lambda: LinSubspace(2, 1, [[bad, 0, 0, 0]]),
                      lambda: LagrangianPair(2, 1, [[bad, 0]], {}),
                      lambda: extend_to_form(2, 1, [[bad, 0]],
                                             [Form.zero(ctx, 1)]),
                      lambda: norom_subspace(2, 1, [[bad, 0]], w),
                      lambda: const_vfield(ctx, [bad, 0]),
                      lambda: const(Form, ctx, 1, [bad, 0])):
            with pytest.raises(TypeError):
                build()


def test_non_lagrangian_input_is_refused():
    not_isotropic = LinSubspace(2, 1, [[1, 0, 1, 0]])
    not_maximal = LinSubspace(2, 1, [[1, 0, 0, 0]])
    too_large = LinSubspace(2, 1, [[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 1, 0]])
    for L in (not_isotropic, not_maximal, too_large):
        assert not classify(L)["lagrangian"]
        with pytest.raises(ValueError, match="not Lagrangian"):
            to_pair(L)
        with pytest.raises(ValueError, match="not Lagrangian"):
            multidirac_tier(L, 1)
    L3 = LinSubspace(3, 2, [[1, 0, 0, 1, 0, 0]])
    for r in (1, 2):
        with pytest.raises(ValueError, match="not Lagrangian"):
            multidirac_tier(L3, r)


# -- the cached pairing tensor against the symbolic pairing ------------


def _units(n, p, r):
    """The unit tier-r elements in coordinate order: the unit
    multivectors, then the unit forms."""
    ctx = Context(n)
    return ([SectionPr(p, r, MultiVec.basis(ctx, I), Form.zero(ctx, p + 1 - r))
             for I in _tuples(n, r)]
            + [SectionPr(p, r, MultiVec.zero(ctx, r), Form.basis(ctx, J))
               for J in _tuples(n, p + 1 - r)])


def test_pairing_tensor_is_the_pairing_on_unit_pairs():
    seen = 0
    for n in range(1, 5):
        for p in range(1, n + 1):
            for r in range(1, p + 1):
                for s in range(1, p + 2 - r):
                    us, vs = _units(n, p, r), _units(n, p, s)
                    nt = comb(n, p + 1 - r - s)
                    dense = [[[0] * nt for _ in us] for _ in vs]
                    tensor = _pairing_tensor(n, p, r, s)
                    assert len(tensor) == len(vs)
                    for j, entries in enumerate(tensor):
                        for i, t, v in entries:
                            assert v in (1, -1) and dense[j][i][t] == 0
                            dense[j][i][t] = v
                    for j, v in enumerate(vs):
                        for i, u in enumerate(us):
                            assert [2 * c for c in coords(
                                multi_pairing(u, v))] == dense[j][i]
                    seen += 1
    assert seen == 35


def _symbolic_perp_tier(L, r):
    """The kernel of the pairing with L, one `multi_pairing` per unit
    and member, read back with `coords`."""
    n, p, s = L.n, L.p, L.r
    mem = [SectionPr(p, s, Y, eta) for Y, eta in L.members()]
    units = _units(n, p, r)
    cols = [[c for b in mem for c in coords(multi_pairing(u, b))]
            for u in units]
    return LinSubspace(n, p, kernel_basis(
        [list(row) for row in zip(*cols)], len(units)), r)


def _symbolic_isotropic(L):
    mem = [SectionPr(L.p, 1, Y, eta) for Y, eta in L.members()]
    return all(multi_pairing(a, b).is_zero() for a in mem for b in mem)


def _symbolic_iso_weak(L):
    mem = [SectionPr(L.p, 1, Y, eta) for Y, eta in L.members()]
    S = L.tangent_part()
    return all(form_eval(multi_pairing(a, b), list(combo)) == 0
               for a in mem for b in mem
               for combo in itertools.combinations(S, L.p - 1))


def test_perp_and_isotropy_match_the_symbolic_pairing():
    local = random.Random(2222)
    subspaces = []
    for n in range(1, 5):
        for p in range(1, n + 1):
            for r in range(1, p + 1):
                amb = comb(n, r) + comb(n, p + 1 - r)
                subspaces.append(LinSubspace(n, p, [], r))
                for _ in range(3):
                    subspaces.append(LinSubspace(
                        n, p, _random_rows(local, amb), r))
            L = random_lagrangian(local, n, p)
            subspaces += [multidirac_tier(L, r) for r in range(1, p + 1)]
            # a Lagrangian with one form-only row dropped is isotropic
            # and not maximal
            if L.form_intersection():
                subspaces.append(LinSubspace(n, p, L.basis[:-1]))
    verdicts = set()
    for L in subspaces:
        for r in range(1, L.p + 2 - L.r):
            assert perp_tier(L, r) == _symbolic_perp_tier(L, r)
        if L.r == 1:
            iso = classify(L)["isotropic"]
            assert iso == _symbolic_isotropic(L)
            weak = nambu_dirac_check(L)["iso_weak"]
            assert weak == _symbolic_iso_weak(L)
            verdicts.add((iso, weak))
    assert verdicts == {(True, True), (False, True), (False, False)}
    assert any(any(x.denominator > 1 for row in L.basis for x in row)
               for L in subspaces)


def test_perp_tier_refuses_tiers_out_of_range():
    L = random_lagrangian(random.Random(2223), 3, 2)
    for M in (L, LinSubspace(3, 2, [])):
        for r in (0, -1):
            with pytest.raises(ValueError, match="out of range"):
                perp_tier(M, r)
        with pytest.raises(ValueError, match="tier overflow"):
            perp_tier(M, 3)
    with pytest.raises(ValueError, match="tier overflow"):
        perp_tier(multidirac_tier(L, 2), 2)


def _members_by_const(L):
    """members() as it was written over `calculus.const`: each RREF
    basis row split into its multivector and form coordinates."""
    ctx = L.ctx
    nm = comb(L.n, L.r)
    return [(const(MultiVec, ctx, L.r, row[:nm]),
             const(Form, ctx, L.p + 1 - L.r, row[nm:])) for row in L.basis]


def _admissible_subspaces(local, per_tier=3):
    """Random subspaces of every admissible (n <= 4, p, r), the zero one
    and the multi-Dirac tiers of a random Lagrangian among them."""
    out = []
    for n in range(1, 5):
        for p in range(1, n + 1):
            for r in range(1, p + 1):
                amb = comb(n, r) + comb(n, p + 1 - r)
                out.append(LinSubspace(n, p, [], r))
                out += [LinSubspace(n, p, _random_rows(local, amb), r)
                        for _ in range(per_tier)]
            L = random_lagrangian(local, n, p)
            out += [multidirac_tier(L, r) for r in range(1, p + 1)]
    return out


def test_members_are_the_const_members():
    for L in _admissible_subspaces(random.Random(2727)):
        got, want = L.members(), _members_by_const(L)
        assert len(got) == len(want) == L.dim()
        for (Y, eta), (Yr, etar) in zip(got, want):
            for a, b in ((Y, Yr), (eta, etar)):
                assert type(a) is type(b) and a.degree == b.degree
                assert (a._num, a._den) == (b._num, b._den)
                assert list(a._num) == list(b._num) and str(a) == str(b)
        # kept per subspace: a second call gives the same members, and
        # changing a returned list changes no later call
        again = L.members()
        assert again == got and again is not got
        got.append(None)
        again.clear()
        assert L.members() == got[:-1]


def test_subspace_equality_is_equality_of_fraction_bases():
    local = random.Random(2828)
    equal = 0
    for _ in range(300):
        n = local.randint(1, 4)
        p = local.randint(1, n)
        r = local.randint(1, p)
        amb = comb(n, r) + comb(n, p + 1 - r)
        base = _random_rows(local, amb) or [[0] * amb]
        # rational combinations of a few shared rows: equal spans are common
        rows_a, rows_b = ([[sum(c * x for c, x in zip(cs, col))
                            for col in zip(*base)]
                           for cs in ([Fraction(local.randint(-2, 2),
                                                local.choice([1, 2]))
                                       for _ in base]
                                      for _ in range(local.randint(0, 3)))]
                          for _ in range(2))
        A, B = LinSubspace(n, p, rows_a, r), LinSubspace(n, p, rows_b, r)
        assert A.basis == span_basis(rows_a)
        same = span_basis(rows_a) == span_basis(rows_b)
        assert (A == B) == same and (B == A) == same
        if same:
            assert hash(A) == hash(B)
            equal += A.dim() > 0
    assert equal >= 30   # nonzero equal spans from different rows
