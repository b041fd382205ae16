"""Command-line front end: named check suites with deterministic reports.

Each subcommand runs a verification suite from the library and emits one
flat report object per check (JSON lines, or a text summary).  Reports
always carry the seed and trial count, so a run is reproducible from its
own output.  Exit codes: 0 all checks pass, 1 at least one check fails,
2 bad input: a file error, a parse error, an out-of-range argument or an
expression of the wrong kind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .calculus import Form, MultiVec, deRham
from .courant import SectionEp
from .graded import ORACLE_MAX_ARITY, derived_check, oracle_compare
from .lagrangian import (LinSubspace, classify, from_pair, multidirac_tier,
                         nambu_dirac_check, perp_tier, random_lagrangian,
                         to_pair)
from .linfty import (ObservablesFamily, TwistedSectionsFamily,
                     check_prequantum_morphism, check_relation)
from .parser import parse_expression
from .poly import Context, Poly
from .presentations import GraphForm, GraphMultivector, Regular, ScaledTop
from .sampling import (random_observables_elem, random_poly,
                       random_twisted_elem, random_vfield)

SCHEMA = 1


class _BadInput(Exception):
    """Input a command cannot use; ``main`` reports it and exits 2."""


@contextlib.contextmanager
def _reading_input():
    """Report errors raised while reading user input as bad input."""
    try:
        yield
    except (ValueError, KeyError, OSError) as exc:
        raise _BadInput(exc) from exc


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _BadInput(message)


def _context(dim: int) -> Context:
    _require(dim >= 1, f"--dim must be >= 1, got {dim}")
    return Context(dim)


def _check_order(args) -> None:
    _require(1 <= args.p <= args.dim,
             f"need 1 <= --p <= --dim, got --p {args.p}, --dim {args.dim}")


def _default_seed() -> int:
    value = os.environ.get("DIRACSPACE_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise _BadInput(
            f"DIRACSPACE_SEED must be an integer, got {value!r}") from None


def _read_source(value: str) -> str:
    """An expression flag accepts either a literal or a file path."""
    if os.path.isfile(value):
        with open(value) as fh:
            return fh.read().strip()
    return value


def _expression(src: str, ctx: Context, kind: type, name: str):
    """Parse ``src`` and require a value of type ``kind``; where a Form
    is required, a value that parses to zero is the zero form."""
    value = parse_expression(src, ctx)[0]
    if kind is Form and isinstance(value, Poly) and value.is_zero():
        value = Form.zero(ctx)
    _require(isinstance(value, kind), f"{name} must be a {kind.__name__}, "
             f"got the {type(value).__name__} {value}")
    return value


def _parse_flag(value: str, ctx: Context, kind: type, name: str):
    return _expression(_read_source(value), ctx, kind, name)


def _emit(reports, fmt: str) -> int:
    """Print the reports; the exit code is 1 when any check failed."""
    failed = False
    for rep in reports:
        rep["schema"] = SCHEMA
        if rep.get("status") == "fail":
            failed = True
        if fmt == "json":
            print(json.dumps(rep, sort_keys=True, default=str))
        else:
            status = rep.get("status", "info").upper()
            detail = ", ".join(f"{k}={rep[k]}" for k in sorted(rep)
                               if k not in ("schema", "status", "check",
                                            "command"))
            print(f"{status:4s} {rep.get('check', rep['command'])} "
                  f"({detail})")
    return 1 if failed else 0


def _failures(command: str, check: str, args, failures: int, **extra) -> dict:
    """The report of a check run on ``args.trials`` samples, of which
    ``failures`` failed."""
    return {"command": command, "check": check, "seed": args.seed,
            "trials": args.trials, "failures": failures,
            "status": "pass" if failures == 0 else "fail", **extra}


def _common_flags(sp, trials=20):
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--trials", type=int, default=trials)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=("json", "text"), default="json")


# -- subcommands ---------------------------------------------------------


def cmd_parse(args) -> int:
    ctx = _context(args.dim)
    with _reading_input():
        src = _read_source(args.expr)
        value, warnings = parse_expression(src, ctx, args.p)
    rep = {"command": "parse", "kind": type(value).__name__,
           "normalized": str(value), "warnings": warnings, "status": "pass"}
    return _emit([rep], args.format)


def _linfty_family(args, rng):
    ctx = _context(args.dim)
    if args.family == "observables":
        if args.omega is not None:
            omega = _parse_flag(args.omega, ctx, Form, "--omega")
            _require(deRham(omega).is_zero(),
                     f"--omega must be closed, got {omega}")
        elif args.dim == args.p + 1:
            omega = Form(ctx, args.p + 1,
                         {tuple(ctx.axes()): Poly.constant(ctx, 1)})
        else:
            raise ValueError("supply --omega unless dim = p + 1")
        F = ObservablesFamily(GraphForm(args.dim, args.p, omega))
        return F, args.p, lambda: random_observables_elem(rng, F)
    H = (_parse_flag(args.H, ctx, Form, "--H") if args.H is not None
         else None)
    F = TwistedSectionsFamily(args.r, ctx, H,
                              allow_nonclosed=args.allow_nonclosed)
    return F, args.r, lambda: random_twisted_elem(rng, F)


def cmd_check_linfty(args) -> int:
    _require(args.arity_max is None or args.arity_max >= 1,
             f"--arity-max must be >= 1, got {args.arity_max}")
    rng = random.Random(args.seed)
    with _reading_input():
        F, depth, rand_elem = _linfty_family(args, rng)
    arity_max = args.arity_max or depth + 2
    reports = []
    for n in range(1, arity_max + 1):
        failures = 0
        for _ in range(args.trials):
            if not check_relation(F, [rand_elem() for _ in range(n)]).is_zero():
                failures += 1
        reports.append(_failures("check-linfty",
                                 f"homotopy-relation-arity-{n}", args,
                                 failures, family=args.family))
    return _emit(reports, args.format)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_PRESENTATIONS = {   # kind -> class, constructor fields and their types
    "graph-form": (GraphForm, (("dim", int), ("p", int), ("omega", Form))),
    "graph-multivector": (GraphMultivector,
                          (("dim", int), ("p", int), ("pi", MultiVec))),
    "regular": (Regular, (("dim", int), ("p", int), ("axes", list),
                          ("omega", Form))),
    "scaled-top": (ScaledTop, (("dim", int), ("f", Poly), ("Omega", Form))),
}


def _load_presentation(path: str):
    """A JSON object with a "kind", integers "dim" and "p", an integer
    list "axes", and the kind's expressions as strings that parse to
    the field's type."""
    with open(path) as fh:
        spec = json.load(fh)
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _PRESENTATIONS:
        raise ValueError("a presentation file must hold a JSON object of "
                         f"kind {', '.join(_PRESENTATIONS)}")
    cls, fields = _PRESENTATIONS[kind]
    values = [spec.get(name) for name, _ in fields]
    for (name, typ), v in zip(fields, values):
        if not (_is_int(v) if typ is int else
                isinstance(v, list) and all(map(_is_int, v)) if typ is list
                else isinstance(v, str)):
            raise ValueError(f"presentation field {name!r} has a wrong type")
    ctx = Context(values[0])
    return cls(*(_expression(v, ctx, typ, f"presentation field {name!r}")
                 if isinstance(v, str) else v
                 for (name, typ), v in zip(fields, values)))


def _constant_subspace(P):
    """The pointwise subspace when every generator has constant
    coefficients, else None."""
    elems = []
    for e in P.generators():
        if not (e.X.is_constant() and e.alpha.is_constant()):
            return None
        elems.append((e.X, e.alpha))
    return LinSubspace.from_elements(P.n, P.p, elems)


def cmd_check_dirac(args) -> int:
    with _reading_input():
        P = _load_presentation(args.file)
    reports = []
    for name, rep in (("isotropic", P.verify_isotropic()),
                      ("involutive", P.verify_involutive())):
        reports.append({"command": "check-dirac", "check": name,
                        "seed": 0, "trials": 0,
                        "witnesses": rep["witnesses"][:3],
                        "status": rep["status"]})
    L = _constant_subspace(P)
    if L is not None:
        nd = nambu_dirac_check(L)
        for name, key in (("nambu-iso-weak", "iso_weak"),
                          ("nambu-hismax", "hismax")):
            reports.append({"command": "check-dirac", "check": name,
                            "seed": 0, "trials": 0, "dim_L": L.dim(),
                            "status": "pass" if nd[key] else "fail"})
    return _emit(reports, args.format)


def cmd_check_morphism(args) -> int:
    rng = random.Random(args.seed)
    ctx = _context(args.dim)
    with _reading_input():
        sigma = _parse_flag(args.sigma, ctx, Form,
                            "--sigma").as_degree(2, "--sigma")

    def rand_e0():
        return SectionEp(0, random_vfield(rng, ctx, max_deg=1),
                         Form.from_poly(random_poly(rng, ctx, max_deg=2)))

    pairs = [(rand_e0(), rand_e0()) for _ in range(args.trials)]
    triples = [tuple(rand_e0() for _ in range(3))
               for _ in range(args.trials)]
    rep = check_prequantum_morphism(sigma, pairs, triples)
    closed = deRham(sigma).is_zero()
    reports = []
    for key in ("chain_map", "unary_vs_phi1", "bracket_defect",
                "jacobiator_defect"):
        sub = rep[key]
        out = {"command": "check-morphism", "check": key, "seed": args.seed,
               "trials": args.trials, "sigma_closed": closed,
               "status": sub["status"]}
        if key == "jacobiator_defect" and not closed:
            matches = [r["equals_dsigma(X,Y,Z)"] for r in sub["residuals"]]
            out["defects_equal_dsigma"] = all(matches) and bool(matches)
            if args.allow_nonclosed:
                # negative control: the defect itself is the prediction
                out["status"] = ("pass" if out["defects_equal_dsigma"]
                                 else "fail")
        reports.append(out)
    return _emit(reports, args.format)


def cmd_lagrangian_roundtrip(args) -> int:
    _check_order(args)
    rng = random.Random(args.seed)
    roundtrip_bad = classify_bad = 0
    for _ in range(args.trials):
        L = random_lagrangian(rng, args.dim, args.p)
        if from_pair(to_pair(L)) != L:
            roundtrip_bad += 1
        amb = L.ambient_dim()
        k = rng.randint(0, amb)
        rows = [[Fraction(rng.randint(-1, 1)) for _ in range(amb)]
                for _ in range(k)]
        c = classify(LinSubspace(args.dim, args.p, rows))
        if c["lagrangian"] != c["easychar"]:
            classify_bad += 1
    reports = [
        _failures("lagrangian-roundtrip", "to_pair-from_pair", args,
                  roundtrip_bad),
        _failures("lagrangian-roundtrip", "classify-agreement", args,
                  classify_bad),
    ]
    return _emit(reports, args.format)


def cmd_multidirac_tiers(args) -> int:
    _check_order(args)
    rng = random.Random(args.seed)
    n, p = args.dim, args.p
    tier_bad = iso_bad = 0
    for _ in range(args.trials):
        L = random_lagrangian(rng, n, p)
        tiers = [multidirac_tier(L, r) for r in range(1, p + 1)]
        if tiers[0] != L:
            tier_bad += 1
        for r in range(1, p + 1):
            for s in range(1, p + 1):
                if r + s <= p + 1 and perp_tier(tiers[s - 1], r) != \
                        tiers[r - 1]:
                    iso_bad += 1
    reports = [
        _failures("multidirac-tiers", "tier-1-is-L", args, tier_bad),
        _failures("multidirac-tiers", "tier-perp-duality", args, iso_bad),
    ]
    return _emit(reports, args.format)


def cmd_oracle_compare(args) -> int:
    _require(args.arity_max is None
             or 2 <= args.arity_max <= ORACLE_MAX_ARITY,
             f"need 2 <= --arity-max <= {ORACLE_MAX_ARITY}, "
             f"got {args.arity_max}")
    rng = random.Random(args.seed)
    ctx = _context(args.dim)
    with _reading_input():
        H = (_parse_flag(args.H, ctx, Form, "--H") if args.H is not None
             else None)
        F = TwistedSectionsFamily(args.r, ctx, H, allow_nonclosed=True)
    reports = []
    facts = derived_check(args.r, ctx, rng, H, samples=min(args.trials, 5))
    reports.append({"command": "oracle-compare", "check": "graded-model",
                    "pipeline": facts["pipeline"], "seed": args.seed,
                    "trials": args.trials,
                    "twist_closed": facts["twist_closed"],
                    "status": facts["status"]})
    arity_max = args.arity_max or min(args.r + 2, ORACLE_MAX_ARITY)
    for n in range(2, arity_max + 1):
        tuples = [[random_twisted_elem(rng, F) for _ in range(n)]
                  for _ in range(args.trials)]
        witnesses = oracle_compare(F, tuples)
        reports.append(_failures("oracle-compare",
                                 f"oracle-vs-direct-arity-{n}", args,
                                 len(witnesses), pipeline="derived-bracket"))
    return _emit(reports, args.format)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parse keeps its
    results in the fresh namespace it returns, never in the parser."""
    ap = argparse.ArgumentParser(
        prog="diracspace",
        description="verification suites for higher Dirac structures")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and normalize an expression")
    sp.add_argument("expr")
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("check-linfty", help="homotopy Jacobi relations")
    sp.add_argument("--family", choices=("observables", "getzler"),
                    required=True)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--H", default=None)
    sp.add_argument("--omega", default=None)
    sp.add_argument("--arity-max", type=int, default=None)
    sp.add_argument("--allow-nonclosed", action="store_true")
    _common_flags(sp)
    sp.set_defaults(func=cmd_check_linfty)

    sp = sub.add_parser("check-dirac", help="presentation integrability")
    sp.add_argument("--file", required=True)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_check_dirac)

    sp = sub.add_parser("check-morphism",
                        help="prequantum Lie-2 morphism equations")
    sp.add_argument("--sigma", required=True)
    sp.add_argument("--allow-nonclosed", action="store_true")
    _common_flags(sp)
    sp.set_defaults(func=cmd_check_morphism)

    sp = sub.add_parser("lagrangian-roundtrip",
                        help="pointwise Lagrangian pair encoding")
    sp.add_argument("--p", type=int, default=1)
    _common_flags(sp, trials=100)
    sp.set_defaults(func=cmd_lagrangian_roundtrip)

    sp = sub.add_parser("multidirac-tiers",
                        help="higher-tier orthogonality of Lagrangians")
    sp.add_argument("--p", type=int, default=2)
    _common_flags(sp, trials=25)
    sp.set_defaults(func=cmd_multidirac_tiers)

    sp = sub.add_parser("oracle-compare",
                        help="derived-bracket oracle vs direct formulas")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--H", default=None)
    sp.add_argument("--arity-max", type=int, default=None)
    _common_flags(sp, trials=10)
    sp.set_defaults(func=cmd_oracle_compare)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "trials"):   # the flags of _common_flags
            _require(args.trials >= 1,
                     f"--trials must be >= 1, got {args.trials}")
            if args.seed is None:
                args.seed = _default_seed()
        return args.func(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
