import json

import pytest

from diracspace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_parse_command(capsys):
    code, reports = run_cli(capsys, "parse", "dx1^dx2 + 3/2*x1*dx2^dx3",
                            "--dim", "3")
    assert code == 0
    assert reports[0]["kind"] == "Form"
    assert reports[0]["schema"] == 1


@pytest.mark.parametrize("expr, kind", [
    ("Dx1", "VField"), ("x2*Dx1 + -1*Dx3", "VField"),
    ("Dx1^Dx2", "MultiVec"),
])
def test_parse_reports_kind(capsys, expr, kind):
    code, reports = run_cli(capsys, "parse", expr, "--dim", "3")
    assert code == 0
    assert reports[0]["kind"] == kind and reports[0]["normalized"] == expr


def test_parse_command_bad_input(capsys):
    assert main(["parse", "x1 $", "--dim", "3"]) == 2


def test_exponent_past_the_ceiling_exits_2(capsys):
    assert main(["parse", "((x1^64)^64)^64", "--dim", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == ("error: exponent above 32767 in a product "
                   "(line 1, column 14)\n")
    assert main(["parse", "(x1^64)^2", "--dim", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["normalized"] == "x1^128"


@pytest.mark.parametrize("argv", [
    ["parse", "x1", "--dim", "0"],
    ["check-morphism", "--sigma", "dx1^dx2", "--dim", "0"],
    ["lagrangian-roundtrip", "--dim", "0"],
    ["lagrangian-roundtrip", "--p", "0"],
    ["lagrangian-roundtrip", "--dim", "2", "--p", "3"],
    ["multidirac-tiers", "--dim", "0"],
    ["multidirac-tiers", "--p", "0"],
    ["multidirac-tiers", "--dim", "2", "--p", "3"],
    ["oracle-compare", "--dim", "0"],
    ["oracle-compare", "--arity-max", "9"],
    ["check-linfty", "--family", "getzler", "--trials", "0"],
    ["check-morphism", "--sigma", "dx1^dx2", "--trials", "-3"],
    ["lagrangian-roundtrip", "--trials", "0"],
    ["lagrangian-roundtrip", "--trials", "-3"],
    ["multidirac-tiers", "--trials", "0"],
    ["oracle-compare", "--trials", "-3"],
    ["oracle-compare", "--H", "x1"],
    ["oracle-compare", "--H", "Dx1"],
    ["oracle-compare", "--r", "2", "--H", "Dx1^Dx2^Dx3"],
    ["check-linfty", "--family", "observables", "--p", "3", "--dim", "4",
     "--omega", "x1"],
    ["check-linfty", "--family", "getzler", "--H", "Dx1"],
    ["check-linfty", "--family", "getzler", "--r", "2", "--H",
     "Dx1^Dx2^Dx3"],
    ["check-morphism", "--sigma", "Dx1^Dx2"],
    ["parse", "1/0"],
    ["parse", "(" * 5000 + "x1" + ")" * 5000],
    ["parse", "x1^1000000"],
    ["parse", "((x1+x2+x3)^16)^16"],
    ["parse", "*".join(["(x1+x2+x3)^16"] * 16)],
    ["check-linfty", "--family", "observables", "--dim", "4", "--p", "2",
     "--omega", "x4*dx1^dx2^dx3"],
    ["oracle-compare", "--arity-max", "1"],
    ["oracle-compare", "--arity-max", "0"],
    ["oracle-compare", "--arity-max", "-1"],
    ["check-linfty", "--family", "getzler", "--arity-max", "0"],
    ["check-linfty", "--family", "getzler", "--arity-max", "-2"],
    ["check-linfty", "--family", "observables", "--dim", "6", "--p", "2",
     "--omega", "x1*dx4^dx5^dx6"],
    ["check-linfty", "--family", "observables", "--dim", "3", "--p", "2",
     "--omega", "dx1^dx2"],
])
def test_out_of_range_arguments_exit_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["check-linfty", "--family", "observables", "--p", "2", "--omega", "0"],
    ["check-linfty", "--family", "observables", "--dim", "3", "--omega",
     "dx1^dx2"],
    ["check-linfty", "--family", "observables", "--dim", "6", "--p", "2",
     "--omega", "dx1^dx2^dx3 + dx4^dx5^dx6"],
])
def test_closed_degenerate_omega_is_valid_input(capsys, argv):
    # a closed but degenerate omega has forms without a Hamiltonian
    # vector field; the sampler then draws the vector field first
    code, reports = run_cli(capsys, *argv)
    assert code == 0
    assert [r["check"] for r in reports] == [
        f"homotopy-relation-arity-{n}" for n in range(1, len(reports) + 1)]
    assert len(reports) >= 3 and all(r["status"] == "pass" for r in reports)


def test_check_linfty_getzler(capsys):
    code, reports = run_cli(capsys, "check-linfty", "--family", "getzler",
                            "--r", "2", "--dim", "3", "--H", "0",
                            "--arity-max", "4", "--trials", "5",
                            "--seed", "7")
    assert code == 0
    assert len(reports) == 4
    assert all(r["status"] == "pass" and r["seed"] == 7
               and r["trials"] == 5 for r in reports)


def test_check_linfty_observables(capsys):
    code, reports = run_cli(capsys, "check-linfty", "--family",
                            "observables", "--p", "2", "--dim", "3",
                            "--trials", "4", "--seed", "1")
    assert code == 0
    assert all(r["status"] == "pass" for r in reports)


def test_check_dirac_fixture(tmp_path, capsys):
    pres = tmp_path / "plane.pres"
    pres.write_text(json.dumps({
        "kind": "regular", "dim": 4, "p": 2, "axes": [1, 2],
        "omega": "dx1^dx2^dx3"}))
    code, reports = run_cli(capsys, "check-dirac", "--file", str(pres))
    by_check = {r["check"]: r for r in reports}
    assert by_check["isotropic"]["status"] == "pass"
    assert by_check["involutive"]["status"] == "pass"
    assert by_check["nambu-iso-weak"]["status"] == "pass"
    assert by_check["nambu-hismax"]["status"] == "fail"
    assert code == 1


def test_zero_form_has_a_spelling(tmp_path, capsys):
    # a Form-valued input that parses to zero is the zero form
    pres = tmp_path / "tangent.pres"
    pres.write_text(json.dumps({"kind": "graph-form", "dim": 3, "p": 1,
                                "omega": "0"}))
    code, reports = run_cli(capsys, "check-dirac", "--file", str(pres))
    assert code == 0 and all(r["status"] == "pass" for r in reports)
    code, reports = run_cli(capsys, "oracle-compare", "--H", "dx1 - dx1",
                            "--arity-max", "3", "--trials", "2")
    assert code == 0 and reports[0]["twist_closed"] is True
    assert main(["oracle-compare", "--H", "x1"]) == 2


def test_check_dirac_missing_file(capsys):
    assert main(["check-dirac", "--file", "/nonexistent.pres"]) == 2


@pytest.mark.parametrize("spec", [
    {"kind": "regular", "dim": "4", "p": 2, "axes": [1, 2],
     "omega": "dx1^dx2^dx3"},
    [{"kind": "regular", "dim": 4, "p": 2, "axes": [1, 2],
      "omega": "dx1^dx2^dx3"}],
    {"kind": "graph-form", "dim": 3, "p": 1, "omega": "x1"},
    {"kind": "graph-form", "dim": 3, "p": 1, "omega": "Dx1^Dx2"},
    {"kind": "graph-multivector", "dim": 3, "p": 1, "pi": "Dx1"},
    {"kind": "scaled-top", "dim": 3, "f": "dx1", "Omega": "dx1^dx2^dx3"},
])
def test_check_dirac_mistyped_file_exits_2(tmp_path, capsys, spec):
    pres = tmp_path / "bad.pres"
    pres.write_text(json.dumps(spec))
    assert main(["check-dirac", "--file", str(pres)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_integer_seed_variable_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("DIRACSPACE_SEED", "abc")
    assert main(["lagrangian-roundtrip", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "DIRACSPACE_SEED" in err


def test_check_morphism_closed(capsys):
    code, reports = run_cli(capsys, "check-morphism", "--sigma", "dx1^dx2",
                            "--dim", "3", "--trials", "4", "--seed", "3")
    assert code == 0
    assert {r["check"] for r in reports} == {
        "chain_map", "unary_vs_phi1", "bracket_defect", "jacobiator_defect"}


@pytest.mark.parametrize("sigma", ["0", "dx1^dx2 - dx1^dx2"])
def test_check_morphism_zero_sigma(capsys, sigma):
    # a zero expression is the zero 2-form, which is closed
    code, reports = run_cli(capsys, "check-morphism", "--sigma", sigma,
                            "--dim", "3", "--trials", "4", "--seed", "3")
    assert code == 0
    assert len(reports) == 4 and all(r["status"] == "pass" for r in reports)
    assert main(["check-morphism", "--sigma", "x1", "--dim", "3"]) == 2


def test_check_morphism_nonclosed_negative_control(capsys):
    code, reports = run_cli(capsys, "check-morphism", "--sigma",
                            "x3*dx1^dx2", "--dim", "3", "--trials", "3",
                            "--seed", "3", "--allow-nonclosed")
    assert code == 0
    jac = next(r for r in reports if r["check"] == "jacobiator_defect")
    assert jac["defects_equal_dsigma"] is True
    assert jac["sigma_closed"] is False


def test_lagrangian_roundtrip(capsys):
    code, reports = run_cli(capsys, "lagrangian-roundtrip", "--dim", "4",
                            "--p", "2", "--trials", "25", "--seed", "1")
    assert code == 0
    assert all(r["failures"] == 0 for r in reports)


def test_multidirac_tiers(capsys):
    code, reports = run_cli(capsys, "multidirac-tiers", "--dim", "4",
                            "--p", "3", "--trials", "5", "--seed", "2")
    assert code == 0


def test_multidirac_tiers_catches_a_wrong_tier(capsys, monkeypatch):
    # the report compares every tier with the brute-force perp, so tiers
    # r >= 2 with their form part negated must fail tier-perp-duality
    from math import comb

    import diracspace.cli as cli
    from diracspace.lagrangian import LinSubspace, multidirac_tier

    def negated_tier(L, r):
        D = multidirac_tier(L, r)
        if r < 2:
            return D
        nm = comb(D.n, r)
        return LinSubspace(D.n, D.p, [row[:nm] + [-x for x in row[nm:]]
                                      for row in D.basis], r)

    monkeypatch.setattr(cli, "multidirac_tier", negated_tier)
    code = main(["multidirac-tiers", "--dim", "4", "--p", "3", "--trials",
                 "5", "--seed", "1"])
    captured = capsys.readouterr()
    reports = {r["check"]: r for r in map(json.loads,
                                          captured.out.splitlines())}
    assert code == 1 and captured.err == ""
    assert reports["tier-1-is-L"]["status"] == "pass"
    assert reports["tier-perp-duality"]["status"] == "fail"
    assert reports["tier-perp-duality"]["failures"] > 0


def test_oracle_compare(capsys):
    code, reports = run_cli(capsys, "oracle-compare", "--r", "2", "--dim",
                            "3", "--arity-max", "3", "--trials", "3",
                            "--seed", "4")
    assert code == 0
    assert reports[0]["pipeline"] == "derived-bracket"


def test_reports_are_deterministic(capsys):
    argv = ["check-linfty", "--family", "getzler", "--r", "2", "--dim",
            "3", "--trials", "4", "--seed", "11"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("DIRACSPACE_SEED", "42")
    code, reports = run_cli(capsys, "lagrangian-roundtrip", "--dim", "3",
                            "--p", "1", "--trials", "3")
    assert code == 0
    assert all(r["seed"] == 42 for r in reports)


def test_text_format(capsys):
    code = main(["parse", "x1 + x2", "--dim", "2", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("PASS")


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main builds its parser once per process; a parse keeps nothing in
    # it, so each call gives what a freshly built parser gives
    import diracspace.cli as cli

    monkeypatch.delenv("DIRACSPACE_SEED", raising=False)
    argvs = [
        ["parse", "x1*dx2", "--dim", "2", "--format", "text"],
        ["lagrangian-roundtrip", "--dim", "3", "--p", "2", "--trials", "3",
         "--seed", "4"],
        ["parse", "x1 $", "--dim", "3"],                 # bad input
        ["multidirac-tiers", "--trials", "2"],           # defaults again
        ["lagrangian-roundtrip", "--dims", "3"],         # argparse refuses
        ["check-linfty", "--family", "getzler", "--trials", "2"],
        ["parse", "dx1", "--dim", "2"],                  # json again
        ["lagrangian-roundtrip", "--trials", "2"],       # seed and dim reset
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    cli._parser.cache_clear()
    shared = [run(argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0, 0]
    assert shared[-1][1].count('"seed": 0') == 2
