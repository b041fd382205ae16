import random
from fractions import Fraction
from math import comb

import pytest

from diracspace.poly import Context
from diracspace.calculus import Form, contract
from diracspace.lagrangian import (LinSubspace, classify, const,
                                   const_vfield, extend_to_form, form_eval,
                                   from_pair, multidirac_tier,
                                   nambu_dirac_check, norom_subspace, perp,
                                   perp_tier, random_lagrangian, to_pair)

rng = random.Random(505)


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
    import itertools
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


def test_extend_to_form_restriction():
    ctx = Context(3)
    beta = extend_to_form(3, 1, [[1, 0, 0]], [Form.basis(ctx, (2,))])
    assert form_eval(beta, [[1, 0, 0], [0, 1, 0]]) == 1
    assert form_eval(beta, [[1, 0, 0], [0, 0, 1]]) == 0


def test_extend_to_form_random_restriction():
    from diracspace.lagrangian import span_basis
    from diracspace.sampling import random_constant_form
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
