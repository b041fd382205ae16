"""The CLI exit-code contract under generated input: every argv and every
presentation file exits 0, 1 or 2, and never with a traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from diracspace.cli import main

_EXPRESSIONS = ["0", "x1", "Dx1", "Dx1^Dx2", "dx1", "dx1^dx2", "dx2^dx3",
                "x3*dx1^dx2", "dx1^dx2^dx3", "x1*dx1^dx2^dx3", "dx1^dx1",
                "dx1 + Dx1", "1/0", "x1 $", "(x1", "x9", "dx1^dx2 - dx1^dx2"]

# mostly the listed expressions, sometimes a string of tokens
_EXPRESSION = st.integers(0, 3).flatmap(
    lambda k: st.sampled_from(_EXPRESSIONS) if k < 3 else st.lists(
        st.sampled_from(["x1", "dx2", "Dx3", "^", "+", "(", ")", "2"]),
        max_size=6).map("".join))

# flag -> values, mostly valid so that most runs reach the checks
_FLAGS = {flag: st.sampled_from(values) for flag, values in {
    "--dim": [3, 2, 1, 3, 2, 0, -1],
    "--p": [1, 2, 3, 1, 2, 0, 4],
    "--r": [1, 2, 3, 1, 2, 0, -1],
    "--trials": [1, 1, 1, 0, -1],
    "--arity-max": [1, 2, 3, 2, 0, -1],
    "--seed": [0, 1, 2, 3],
    "--format": ["json", "text", "json", "text", "xml"],
    "--family": ["observables", "getzler", "observables", "getzler",
                 "other"],
}.items()}
_FLAGS.update({"--omega": _EXPRESSION, "--H": _EXPRESSION,
               "--sigma": _EXPRESSION})

_COMMON = ["--dim", "--trials", "--seed", "--format"]

_SUBCOMMANDS = {   # subcommand -> its flags, most of the time
    "parse": ["--dim", "--p", "--format"],
    "check-linfty": _COMMON + ["--family", "--p", "--r", "--H", "--omega",
                               "--arity-max", "--allow-nonclosed"],
    "check-dirac": ["--format"],
    "check-morphism": _COMMON + ["--sigma", "--allow-nonclosed"],
    "lagrangian-roundtrip": _COMMON + ["--p"],
    "multidirac-tiers": _COMMON + ["--p"],
    "oracle-compare": _COMMON + ["--r", "--H", "--arity-max"],
}


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    names = _SUBCOMMANDS[sub] if draw(st.integers(0, 9)) < 9 else [
        *_FLAGS, "--allow-nonclosed"]
    flags = draw(st.lists(st.sampled_from(sorted(names)), max_size=5,
                          unique=True))
    # the required flags, and --trials: the defaults run 10 to 100 trials
    for flag in ("--family", "--sigma", "--trials"):
        if flag in _SUBCOMMANDS[sub] and flag not in flags:
            flags.append(flag)
    argv = [sub]
    for flag in flags:
        argv.append(flag)
        if flag != "--allow-nonclosed":
            argv.append(str(draw(_FLAGS[flag])))
    if sub == "parse":   # "--" ends the options: an expression may start "-"
        argv += ["--", draw(_EXPRESSION)]
    return argv


def _run(argv):
    """Exit code and stderr of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refuses the arguments
            code = exc.code
    return code, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_argvs())
def test_generated_argvs_keep_the_exit_contract(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)


_JUNK = st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3) \
    | st.lists(st.integers(-1, 4), max_size=3)

_FIELDS = {   # presentation field -> well-typed values, often of the right degree
    "dim": st.sampled_from([3, 3, 2, 1, 0]),
    "p": st.sampled_from([1, 2, 1, 2, 3, 0]),
    "axes": st.lists(st.integers(0, 4), max_size=3),
    "omega": st.sampled_from(["dx1^dx2", "x3*dx1^dx2", "dx1^dx2^dx3",
                              "x1*dx1^dx2^dx3", "0"]) | _EXPRESSION,
    "pi": st.sampled_from(["Dx1^Dx2", "x1*Dx1^Dx2", "Dx1^Dx2^Dx3"])
    | _EXPRESSION,
    "f": st.sampled_from(["1", "x1", "1 + x2"]) | _EXPRESSION,
    "Omega": st.sampled_from(["dx1^dx2^dx3", "x1*dx1^dx2^dx3"])
    | _EXPRESSION,
}


@st.composite
def _specs(draw):
    """Mostly an object of a known kind with well-typed fields; sometimes
    a field of the wrong type, a missing field or not an object."""
    # hypothesis favours small integers, so 0 draws the common case
    if draw(st.integers(0, 9)) == 9:
        return draw(_JUNK | st.lists(_JUNK, max_size=2))
    spec = {"kind": draw(st.sampled_from(["graph-form", "graph-multivector",
                                          "regular", "scaled-top", "other"]))}
    for name, values in _FIELDS.items():
        k = draw(st.integers(0, 19))
        if k < 19:
            spec[name] = draw(values if k < 18 else _JUNK)
    return spec


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_specs())
def test_generated_presentation_files_keep_the_exit_contract(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.pres")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        code, err = _run(["check-dirac", "--file", path])
    assert code in (0, 1, 2), (spec, code)
    assert "Traceback" not in err, (spec, err)
