"""The four workloads: fixed objects, seeded inputs and checked verdicts.

A workload builds its fixed objects once (``setup``) and then produces
its inputs one *round* at a time (``gen_round``).  A round covers every
class of check the workload has once, so any whole number of rounds
has the same mix.  Inputs are built only from ``diracspace.sampling``
and the public constructors (``F.element``, ``F.form``, ``F.section``,
``SectionEp``, ``LinSubspace``), with the distributions the acceptance
criteria use.

Each check carries its expected verdict.  Negative controls are checks
too: a control whose defect goes unnoticed counts as a failed check.
Library functions are looked up on the module at call time, so the
traced pass sees the wrappers installed after the inputs were made.

Every workload class states ``tail_pct``, the percentile reported as
the tail, ``trace_rounds``, the rounds of a traced run, and
``expected``, the per-layer counts that must not be zero in a traced
run.  A check's label names its class.  Every round has the same
classes with the same sizes and degrees; the seed draws coefficients
(and whatever ``random_lagrangian`` draws for itself).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable


@dataclass
class Check:
    label: str                      # class of the check, e.g. "obs-p2-poly-n3"
    run: Callable[[], Any]          # the timed call into the program
    ok: Callable[[Any], bool]       # the verdict, also timed
    show: Callable[[Any], str]      # printed result for the digest, untimed


def _text(values) -> str:
    return "; ".join(str(v) for v in values)


def _show_report(rep) -> str:
    return json.dumps(rep, sort_keys=True, default=str)


# -- relations -----------------------------------------------------------


def _obs_elem(ds, F, rng, k):
    """Observables element of degree -k, built as in acceptance
    criterion 1: degree-0 elements are Hamiltonian data."""
    S, C = ds.sampling, ds.calculus
    P = F.P
    if k:
        return F.form(-k, S.random_form(rng, P.ctx, P.p - 1 - k, max_deg=1))
    if all(c.is_constant() for c in P.omega.comps.values()):
        return F.element(S.random_form(rng, P.ctx, P.p - 1, max_deg=1))
    X = S.random_symmetry_vfield(rng, P.omega, 1)
    beta = -C.contract(X, P.omega)
    alpha = (C.poincare_primitive(beta) if not beta.is_zero()
             else C.Form.zero(P.ctx, P.p - 1))
    alpha = alpha + S.random_closed_form(rng, P.ctx, P.p - 1)
    return F.element(alpha, X)


def _tw_elem(ds, F, rng, k, max_deg=1):
    """Twisted-sections element of degree -k, built as in acceptance
    criterion 2: degree-0 elements are sections X + alpha."""
    S = ds.sampling
    if k:
        return F.form(-k, S.random_form(rng, F.ctx, F.r - 1 - k,
                                        max_deg=max_deg))
    return F.section(S.random_vfield(rng, F.ctx, max_deg=max_deg),
                     S.random_form(rng, F.ctx, F.r - 1, max_deg=max_deg))


def _degrees(n: int, depth: int, lower: bool) -> list[int]:
    """Element degrees (as -k) of a tuple of arity n: all 0, or with the
    last element lowered to degree -(1 + n % depth), so that both lower
    degrees of a depth-2 family occur across the arities."""
    ks = [0] * n
    if lower:
        ks[-1] = 1 + n % depth
    return ks


def _top(ds, ctx, coeffs: dict):
    """The top form f dx1^...^dxn, f given as {exponents: coefficient}."""
    P = ds.poly
    return ds.calculus.Form(ctx, ctx.dim, {tuple(ctx.axes()): P.Poly(
        ctx, {e: Fraction(c) for e, c in coeffs.items()})})


def _unit(dim: int, *ones: int) -> tuple:
    return tuple(sum(1 for i in ones if i == j) for j in range(1, dim + 1))


class Relations:
    """Homotopy Jacobi relations of both L-infinity families."""

    name = "relations"
    tail_pct = 96.0
    trace_rounds = 2
    expected = ("poly.new.calls", "poly.mul.calls", "poly.add.calls",
                "poly.partial.calls", "calculus.contract.calls",
                "calculus.deRham.calls", "calculus.lie.calls",
                "courant.bracket.calls", "courant.pairing.calls",
                "presentations.ham_bracket.calls",
                "presentations.hamiltonian_solve.calls",
                "presentations.datum.calls", "linfty.check_relation.calls",
                "linfty.l.calls", "linalg.rref.calls", "sampling.calls",
                "sampling.symmetry_vfield.calls")

    def setup(self, ds, workdir):
        Ctx, Form, Poly = ds.poly.Context, ds.calculus.Form, ds.poly.Poly
        L, Pr = ds.linfty, ds.presentations
        families = []
        for p in (1, 2, 3):
            ctx = Ctx(p + 1)
            n = ctx.dim
            zero = (0,) * n
            vols = {"const": _top(ds, ctx, {zero: 1}),
                    "poly": _top(ds, ctx, {zero: 1, _unit(n, 1, 2): 1,
                                           _unit(n, 1, 1): Fraction(-3, 2)})}
            for kind, w in vols.items():
                F = L.ObservablesFamily(Pr.GraphForm(n, p, w))
                families.append((f"obs-p{p}-{kind}", F, _obs_elem, p))
        for r in (2, 3):
            ctx = Ctx(r + 1)
            n = ctx.dim
            H = _top(ds, ctx, {_unit(n, 1): 1, _unit(n, 2, n): -2,
                               (0,) * n: Fraction(1, 2)})
            for kind, twist in (("H0", None), ("Hclosed", H)):
                F = L.TwistedSectionsFamily(r, ctx, twist)
                families.append((f"tw-r{r}-{kind}", F, _tw_elem, r))
        ctx4, ctx3 = Ctx(4), Ctx(3)
        bad_twist = L.TwistedSectionsFamily(
            2, ctx4, Form(ctx4, 3, {(1, 2, 3): Poly.variable(ctx4, 4)}),
            allow_nonclosed=True)
        bad_sigma = Form(ctx3, 2, {(1, 2): Poly.variable(ctx3, 3)})
        return {"families": families, "bad_twist": bad_twist,
                "bad_sigma": bad_sigma}

    def gen_round(self, ds, fx, rng):
        # The acceptance criteria draw each element's degree at random;
        # here every (family, arity) has one all-degree-0 tuple and, for a
        # nonzero depth, one tuple with a lower last element, so that each
        # class has a steady cost and every round the same mix.
        checks = []
        for label, F, make, top in fx["families"]:
            depth = top - 1
            for n in range(1, top + 3):
                for lower in (False, True)[:1 + (depth > 0)]:
                    elems = [make(ds, F, rng, k)
                             for k in _degrees(n, depth, lower)]
                    checks.append(Check(
                        f"{label}-n{n}" + ("-lower" if lower else ""),
                        lambda F=F, e=elems: ds.linfty.check_relation(F, e),
                        lambda res: res.is_zero(),
                        lambda res, e=elems: f"{_text(e)} -> {res}"))
        # negative control: a twist with dH != 0 breaks the Jacobiator on
        # the coordinate fields D1, D2, D3, where dH(D1, D2, D3) = dx4
        Fb = fx["bad_twist"]
        S, C = ds.sampling, ds.calculus
        elems = [Fb.section(C.VField.basis(Fb.ctx, i),
                            S.random_form(rng, Fb.ctx, 1, max_deg=1))
                 for i in (1, 2, 3)]
        checks.append(Check(
            "control-nonclosed-twist",
            lambda: ds.linfty.check_relation(Fb, elems),
            lambda res: not res.is_zero(),
            lambda res: f"{_text(elems)} -> {res}"))
        # negative control: sigma = x3 dx1^dx2 is not closed, and on the
        # coordinate fields the Jacobiator keeps exactly d sigma(X, Y, Z)
        sigma = fx["bad_sigma"]
        triple = tuple(
            ds.courant.SectionEp(0, C.VField.basis(sigma.ctx, i),
                                 C.Form.from_poly(S.random_poly(
                                     rng, sigma.ctx, max_deg=2)))
            for i in (1, 2, 3))
        checks.append(Check(
            "control-nonclosed-sigma",
            lambda: ds.linfty.check_prequantum_morphism(sigma, [], [triple]),
            _dsigma_residual_only, _show_report))
        return checks


def _dsigma_residual_only(rep) -> bool:
    res = rep["jacobiator_defect"]["residuals"]
    return bool(res) and all(r["equals_dsigma(X,Y,Z)"] for r in res)


# -- oracle ----------------------------------------------------------------


class Oracle:
    """Derived-bracket oracle against the direct twisted multibrackets."""

    name = "oracle"
    tail_pct = 85.0
    trace_rounds = 1
    expected = ("graded.oracle_bracket.calls", "graded.gbracket.calls",
                "graded.gpoly.new.calls", "linfty.l.calls",
                "sampling.calls")
    # (r, twisted, arity, lower last element) classes of one round.
    # r = 3 with a twist stops at arity 3: one such arity-5 tuple takes
    # 8-18 s.
    classes = [(2, False, 2, False), (2, False, 2, True),
               (2, False, 3, False), (2, False, 5, False),
               (2, True, 2, False), (2, True, 2, True), (2, True, 3, True),
               (2, True, 5, True),
               (3, False, 2, False), (3, False, 2, True), (3, False, 3, True),
               (3, False, 5, True), (3, True, 2, False), (3, True, 3, True)]

    def setup(self, ds, workdir):
        Ctx, Form, Poly = ds.poly.Context, ds.calculus.Form, ds.poly.Poly
        fams = {}
        for r in (2, 3):
            ctx = Ctx(r + 1)
            n = ctx.dim
            H = _top(ds, ctx, {_unit(n, 1): 1, (0,) * n: -2})
            for twisted in (False, True):
                fams[r, twisted] = ds.linfty.TwistedSectionsFamily(
                    r, ctx, H if twisted else None)
        ctx4 = Ctx(4)
        bad = Form(ctx4, 3, {(1, 2, 3): Poly.variable(ctx4, 4)})
        return {"families": fams, "bad_twist": (ctx4, bad)}

    def gen_round(self, ds, fx, rng):
        checks = []
        for (r, twisted), F in fx["families"].items():
            # the structural facts and master equation behind the oracle
            seed = rng.randrange(2 ** 31)
            checks.append(Check(
                f"derived-r{r}-{'H' if twisted else 'H0'}",
                lambda r=r, F=F, s=seed: ds.graded.derived_check(
                    r, F.ctx, random.Random(s), None if F.H.is_zero() else F.H,
                    samples=1),
                lambda rep: rep["status"] == "pass",
                _show_report))
        for r, twisted, n, lower in self.classes:
            F = fx["families"][r, twisted]
            deg = 0 if n == 5 else 1   # as criterion 3, for the budget
            tup = [_tw_elem(ds, F, rng, k, max_deg=deg)
                   for k in _degrees(n, r - 1, lower)]
            checks.append(Check(
                f"oracle-r{r}-{'H' if twisted else 'H0'}-n{n}"
                + ("-lower" if lower else ""),
                lambda F=F, tup=tup: ds.graded.oracle_compare(F, [tup]),
                lambda wit: not wit,
                lambda wit, F=F, tup=tup: (
                    f"{_text(tup)} -> {F.l(list(tup))} {wit}")))
        # negative control: with dH != 0 the master equation
        # {S - H, S - H} = -2 dH is nonzero and the report says so
        ctx4, bad = fx["bad_twist"]
        seed = rng.randrange(2 ** 31)
        checks.append(Check(
            "control-nonclosed-master",
            lambda: ds.graded.derived_check(2, ctx4, random.Random(seed), bad,
                                            samples=1),
            lambda rep: (rep["status"] == "pass" and not rep["twist_closed"]
                         and rep["master_equation"]),
            _show_report))
        return checks


# -- lagrangian --------------------------------------------------------------


class Lagrangian:
    """Lagrangian normal forms, characterizations and multi-Dirac tiers."""

    name = "lagrangian"
    tail_pct = 98.5
    trace_rounds = 10
    expected = ("lagrangian.multidirac_tier.calls",
                "lagrangian.perp_tier.calls", "linalg.rref.calls",
                "courant.pairing.calls", "courant.bracket.calls",
                "poly.new.calls", "calculus.contract.calls",
                "sampling.calls")

    def setup(self, ds, workdir):
        ctx4 = ds.poly.Context(4)
        plane = ds.lagrangian.norom_subspace(
            4, 2, [[1, 0, 0, 0], [0, 1, 0, 0]],
            ds.calculus.Form.basis(ctx4, (1, 2, 3)))
        return {"plane": plane, "ctx": {n: ds.poly.Context(n)
                                        for n in (1, 2, 3, 4)}}

    # (n, p) of each class of one round; only the coefficients are drawn
    roundtrip = ((2, 1), (3, 2), (4, 2), (4, 3))
    classify = ((2, 1, 2), (3, 1, 3), (3, 2, 3), (3, 2, 6))   # rows too
    extend = ((3, 1), (4, 2))
    tiers = ((3, 2), (4, 2), (4, 3))
    tier11 = ((1, 3), (2, 4))
    graph = (2, 3)

    def gen_round(self, ds, fx, rng):
        La, S, C = ds.lagrangian, ds.sampling, ds.calculus
        ctxs = fx["ctx"]
        checks = []
        for n, p in self.roundtrip:
            L = La.random_lagrangian(rng, n, p)
            checks.append(Check(
                f"roundtrip-n{n}p{p}",
                lambda L=L: (La.from_pair(La.to_pair(L)), L),
                _roundtrip_ok, lambda res: repr(res[0])))
        for n, p, k in self.classify:
            amb = n + comb(n, p)
            rows = [[Fraction(rng.randint(-1, 1)) for _ in range(amb)]
                    for _ in range(k)]
            L = La.LinSubspace(n, p, rows)
            checks.append(Check(
                f"classify-n{n}p{p}k{k}",
                lambda L=L: ds.lagrangian.classify(L),
                lambda c: c["lagrangian"] == c["easychar"],
                _show_report))
        for n, p in self.extend:
            ctx = ctxs[n]
            Sb = []
            while not Sb:
                Sb = ds.linalg.span_basis(
                    [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(n - 2)])
            w0 = S.random_constant_form(rng, ctx, p + 1)
            betas = [C.contract(La.const_vfield(ctx, row), w0) for row in Sb]
            checks.append(Check(
                f"extend_to_form-n{n}p{p}",
                lambda n=n, p=p, Sb=Sb, betas=betas, ctx=ctx: (
                    ds.lagrangian.extend_to_form(n, p, Sb, betas),
                    Sb, betas, ctx),
                lambda res: all(
                    ds.calculus.contract(ds.lagrangian.const_vfield(
                        res[3], row), res[0]) == beta
                    for row, beta in zip(res[1], res[2])),
                lambda res: str(res[0])))
        for n, p in self.tiers:
            L = La.random_lagrangian(rng, n, p)
            checks.append(Check(f"tiers-n{n}p{p}", lambda L=L: _tiers(ds, L),
                                lambda res: res[0], lambda res: res[1]))
        for p, n in self.tier11:
            ctx = ctxs[n]
            e1, e2 = (ds.courant.SectionEp(
                p, S.random_vfield(rng, ctx, 1),
                S.random_form(rng, ctx, p, max_deg=1)) for _ in range(2))
            checks.append(Check(
                f"tier11-courant-p{p}",
                lambda e1=e1, e2=e2: _tier11(ds, e1, e2),
                lambda d: d.is_zero(), str))
        ctx = ctxs[4]
        for p in self.graph:
            w = S.random_form(rng, ctx, p + 1, max_deg=1)
            Y = S.random_vfield(rng, ctx, 1).to_multivec()
            Yb = S.random_vfield(rng, ctx, 1).to_multivec()
            checks.append(Check(
                f"graph-bracket-p{p}",
                lambda p=p, w=w, Y=Y, Yb=Yb: _graph_bracket(ds, p, w, Y, Yb),
                lambda res: res[0], lambda res: res[1]))
        # negative control: the plane with a degenerate volume is
        # Lagrangian and weakly isotropic but fails the top-tier span test
        plane = fx["plane"]
        checks.append(Check(
            "control-plane-hismax",
            lambda: (ds.lagrangian.classify(plane),
                     ds.lagrangian.nambu_dirac_check(plane)),
            lambda res: (plane.dim() == 3 and res[0]["lagrangian"]
                         and res[1]["iso_weak"] and not res[1]["hismax"]),
            lambda res: json.dumps(res, sort_keys=True)))
        return checks


def _roundtrip_ok(res) -> bool:
    back, L = res
    S = L.tangent_part()
    return back == L and L.dim() == len(S) + comb(L.n - len(S), L.p)


def _tiers(ds, L):
    """Acceptance criterion 6: tier formula against the brute-force perp,
    and isotropy of every admissible pair of tiers."""
    La, Co = ds.lagrangian, ds.courant
    p = L.p
    tiers = {r: La.multidirac_tier(L, r) for r in range(1, p + 1)}
    ok = tiers[1] == L and all(tiers[r] == La.perp_tier(L, r)
                               for r in range(1, p + 1))
    for r in range(1, p + 1):
        for s in range(1, p + 2 - r):
            for Y, eta in tiers[r].members():
                a = Co.SectionPr(p, r, Y, eta)
                for Yb, etab in tiers[s].members():
                    ok = ok and Co.multi_pairing(
                        a, Co.SectionPr(p, s, Yb, etab)).is_zero()
    return ok, _text(repr(tiers[r]) for r in sorted(tiers))


def _tier11(ds, e1, e2):
    Co = ds.courant
    got = Co.multi_bracket(Co.SectionPr.from_section(e1),
                           Co.SectionPr.from_section(e2))
    return got.to_section() - Co.courant(e1, e2)


def _graph_bracket(ds, p, w, Y, Yb):
    Co, C = ds.courant, ds.calculus
    got = Co.multi_bracket(Co.SectionPr(p, 1, Y, C.contract(Y, w)),
                           Co.SectionPr(p, 1, Yb, C.contract(Yb, w)))
    mv = C.schouten(Y, Yb)
    ok = (got.Y - mv).is_zero() and (
        got.eta - C.contract(mv, w)
        + C.contract(Y, C.contract(Yb, C.deRham(w)))).is_zero()
    return ok, str(got)


# -- cli -------------------------------------------------------------------


PRESENTATIONS = {
    # one presentation of each kind; the regular one is the plane with a
    # degenerate volume, whose nambu-hismax check fails (exit 1)
    "graph-form": ({"kind": "graph-form", "dim": 3, "p": 1,
                    "omega": "dx1^dx2 + x3*dx1^dx3"}, 0),
    "graph-multivector": ({"kind": "graph-multivector", "dim": 3, "p": 2,
                           "pi": "Dx1^Dx2^Dx3"}, 0),
    "regular": ({"kind": "regular", "dim": 4, "p": 2, "axes": [1, 2],
                 "omega": "dx1^dx2^dx3"}, 1),
    "scaled-top": ({"kind": "scaled-top", "dim": 3, "f": "x1",
                    "Omega": "dx1^dx2^dx3"}, 0),
    # negative control: d(x1 dx2^dx3) != 0, so involutivity fails
    "open-graph-form": ({"kind": "graph-form", "dim": 3, "p": 1,
                         "omega": "dx1^dx2 + x1*dx2^dx3"}, 1),
}

PARSE_BATCH = 6   # expressions per syntactic category and round


class Cli:
    """Every subcommand through ``diracspace.cli.main``, in-process."""

    name = "cli"
    tail_pct = 90.0
    trace_rounds = 1
    expected = ("parser.parse.calls", "cli.report_bytes",
                "linfty.check_relation.calls", "graded.gbracket.calls",
                "lagrangian.multidirac_tier.calls", "linalg.rref.calls")

    def setup(self, ds, workdir):
        files = {}
        for name, (spec, code) in PRESENTATIONS.items():
            path = os.path.join(workdir, f"{name}.pres")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            files[name] = (path, code)
        return {"files": files, "ctx": ds.poly.Context(3)}

    def gen_round(self, ds, fx, rng):
        S, C = ds.sampling, ds.calculus
        ctx = fx["ctx"]
        argvs = []

        def seeded(label, *argv):
            argvs.append((label, [*argv, "--seed", str(rng.randrange(10 ** 6))],
                          0))

        seeded("check-linfty:getzler", "check-linfty", "--family", "getzler")
        # the observables defaults (p = 1, dim = 3) exit 2 with "supply
        # --omega unless dim = p + 1"; p = 2 makes dim = p + 1
        seeded("check-linfty:observables", "check-linfty", "--family",
               "observables", "--p", "2")
        for name, (path, code) in fx["files"].items():
            argvs.append((f"check-dirac:{name}",
                          ["check-dirac", "--file", path], code))
        seeded("check-morphism", "check-morphism", "--sigma", "dx1^dx2")
        for sub in ("lagrangian-roundtrip", "multidirac-tiers",
                    "oracle-compare"):
            seeded(sub, sub)
        checks = [Check(label, lambda a=argv: _main(ds, a),
                        lambda res, c=code, a=argv: _cli_ok(res, c, a),
                        lambda res: f"{res[0]} {res[1]}")
                  for label, argv, code in argvs]
        for i in range(PARSE_BATCH):
            k = i % 4
            values = [
                ("poly", S.random_poly(rng, ctx, 2, n_terms=3), None),
                ("form", S.random_form(rng, ctx, k, max_deg=2), None),
                ("vfield", S.random_vfield(rng, ctx, 2), None),
                ("section",
                 ds.courant.SectionEp(k, S.random_vfield(rng, ctx, 1),
                                      S.random_form(rng, ctx, k, max_deg=1)),
                 k)]
            for kind, value, p in values:
                # "--" ends the options: a printed value may start with "-"
                argv = ["parse", *(["--p", str(p)] if p is not None else []),
                        "--", str(value)]
                checks.append(Check(
                    f"parse:{kind}", lambda a=argv: _main(ds, a),
                    lambda res, v=str(value): _parse_ok(res, v),
                    lambda res: f"{res[0]} {res[1]}"))
        return checks


def _main(ds, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ds.cli.main(argv)
        except SystemExit as exc:   # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_ok(res, want_code, argv) -> bool:
    code, out, err = res
    if code != want_code or err:
        return False
    reports = [json.loads(line) for line in out.splitlines()]
    status = {r["check"]: r["status"] for r in reports}
    if argv[0] != "check-dirac" or want_code == 0:
        return bool(reports) and set(status.values()) == {"pass"}
    if "nambu-hismax" in status and status["involutive"] == "pass":
        # the plane: everything but the top-tier span test passes
        return [k for k, v in status.items() if v == "fail"] == [
            "nambu-hismax"]
    inv = next(r for r in reports if r["check"] == "involutive")
    return inv["status"] == "fail" and bool(inv["witnesses"])


def _parse_ok(res, want: str) -> bool:
    code, out, err = res
    if code != 0 or err:
        return False
    rep = json.loads(out)
    return rep["status"] == "pass" and rep["normalized"] == want


WORKLOADS = {w.name: w for w in (Relations, Oracle, Lagrangian, Cli)}
