import json
import math
import subprocess
import sys
import warnings

import pytest

from rdunkl.reports import VerificationReport, make_report


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "rdunkl", *args],
                          capture_output=True, text=True)


def run_main(capsys, *args):
    """``run_cli`` in-process: ``cli.main`` with stdout and stderr captured,
    for the cases whose subject is not the process boundary (exit codes,
    empty stdout on refusal, stderr warnings and cross-process determinism
    keep ``run_cli``)."""
    from rdunkl.cli import main

    code = main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def test_report_json_round_trip():
    rep = make_report("demo.check", {"r": 3, "lam": 0.5 + 0.25j}, 1e-14, 1e-12,
                      notes=["note"])
    back = VerificationReport.from_json(rep.to_json())
    assert back == rep


def test_report_pass_rule():
    assert make_report("x", {}, 1e-13, 1e-12).passed
    assert not make_report("x", {}, 1e-11, 1e-12).passed
    assert make_report("x", {}, 0.5, 1e-2, kind="exceeds-floor").passed
    assert not make_report("x", {}, 1e-3, 1e-2, kind="exceeds-floor").passed
    with pytest.raises(ValueError):
        make_report("x", {}, 0.0, 0.0, kind="nonsense")


def test_eval_j_cosine_value(capsys):
    out = run_main(capsys, "eval", "j", "--r", "2", "--alpha", "0,-0.5", "--x-grid", "1:1:1")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "x,re,im"
    x, re, im = lines[1].split(",")
    assert re == "0.540302305868140"
    assert im == "0"


def test_eval_cosr_at_zero(capsys):
    out = run_main(capsys, "eval", "cosr", "--r", "3", "--x-grid", "0:0:1")
    assert out.returncode == 0
    assert out.stdout.strip().splitlines()[1] == "0,1,0"


def test_eval_cosr_is_real_on_the_real_grid(capsys):
    out = run_main(capsys, "eval", "cosr", "--r", "5", "--x-grid=-3:4:8")
    assert out.returncode == 0
    rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
    assert len(rows) == 8 and all(im == "0" for _, _, im in rows)


def test_eval_kernel_degenerate_is_complex_exponential(capsys):
    out = run_main(capsys, "eval", "E", "--r", "2", "--x-grid", "1:1:1")
    line = out.stdout.strip().splitlines()[1]
    _, re, im = line.split(",")
    assert abs(float(re) - math.cos(1.0)) < 1e-13
    assert abs(float(im) - math.sin(1.0)) < 1e-13
    assert re == "0.540302305868140" and im == "0.841470984807897"


def test_eval_bad_parameters_exit_2():
    out = run_cli("eval", "j", "--r", "2", "--alpha", "0,-2", "--x-grid", "0:1:2")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_convert_directions(capsys):
    out = run_main(capsys, "convert", "--r", "2", "--direction", "a-to-kappa", "--values", "0,3")
    data = json.loads(out.stdout)
    assert data["solvable"] is True
    assert abs(data["kappa"][0][0] - 1.5) < 1e-12
    out = run_main(capsys, "convert", "--r", "2", "--direction", "a-to-kappa", "--values", "1,0")
    data = json.loads(out.stdout)
    assert data["solvable"] is False and abs(data["residual"] - 0.5) < 1e-12
    assert out.returncode == 0  # no-solution is a value, not an error
    out = run_main(capsys, "convert", "--r", "2", "--direction", "kappa-to-a", "--values", "1.2")
    data = json.loads(out.stdout)
    assert data["solvable"] is True
    assert abs(data["a"][1][0] - 2.4) < 1e-12


@pytest.mark.parametrize("args, stdout", [
    (("--r", "5", "--direction", "kappa-to-a", "--values", "0.1,0.2,0.3,0.4"),
     '{"a": [[0.0, 0.0], [2.0, 0.0], [1.5, 0.0], [1.0, 0.0], [0.5, 0.0]], "solvable": true}\n'),
    (("--r", "3", "--direction", "a-to-kappa", "--values", "0,1.3,2.2"),
     '{"kappa": [[0.7333333333333334, 0.0], [0.43333333333333335, 0.0]], "solvable": true}\n'),
])
def test_convert_prints_correctly_rounded_values(capsys, args, stdout):
    out = run_main(capsys, "convert", *args)
    assert (out.returncode, out.stdout, out.stderr) == (0, stdout, "")


@pytest.mark.parametrize("args", [
    ("--r", "2", "--direction", "a-to-kappa", "--values", "0,nan"),
    ("--r", "2", "--direction", "a-to-kappa", "--values", "nan,1"),
    ("--r", "3", "--direction", "kappa-to-a", "--values", "inf,1"),
    # finite input whose r * kappa or obstruction overflows
    ("--r", "3", "--direction", "kappa-to-a", "--values", "1e308,1"),
    ("--r", "2", "--direction", "a-to-kappa", "--values", "1.7e308+1.7e308j,0"),
])
def test_convert_refuses_non_finite_values(capsys, args):
    out = run_main(capsys, "convert", *args)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error: ")


@pytest.mark.parametrize("args, reason", [
    (("--r", "3", "--direction", "kappa-to-a", "--values", "1e308,1"),
     "--values 1e308,1: the output a[2][0] = inf overflows"),
    (("--r", "2", "--direction", "a-to-kappa", "--values", "1.7e308+1.7e308j,0"),
     "--values 1.7e308+1.7e308j,0: the output residual = inf overflows"),
])
def test_convert_names_the_flag_and_the_overflowing_output(capsys, args, reason):
    out = run_main(capsys, "convert", *args)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {reason}\n")


def test_verify_names_the_check_of_a_non_finite_field(capsys, monkeypatch):
    import rdunkl.cli as cli

    reports = [make_report("demo.finite", {"r": 2}, 0.0, 1e-12),
               make_report("demo.overflow", {"lam": [1.0, float("inf")]}, 0.0, 1e-12)]
    monkeypatch.setattr(cli, "run_suites", lambda *args: reports)
    out = run_main(capsys, "verify", "power", "--r", "2")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: check demo.overflow: params.lam[1] = inf is not finite\n"


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_tolerance_scale_must_be_finite_and_positive(capsys, scale):
    from rdunkl.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["verify", "power", "--r", "3", "--seed", "0", "--tolerance-scale", scale])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "--tolerance-scale" in err


def test_verify_single_suite_json_and_exit(capsys):
    out = run_main(capsys, "verify", "eigen", "--r", "3", "--seed", "7")
    assert out.returncode == 0
    reports = json.loads(out.stdout)
    assert all(rep["pass"] for rep in reports)
    ids = [rep["check_id"] for rep in reports]
    assert ids == sorted(ids)


def test_verify_transmutation_r3_negative_control_labeled(capsys):
    out = run_main(capsys, "verify", "transmutation", "--r", "3", "--seed", "3")
    assert out.returncode == 0
    reports = json.loads(out.stdout)
    control = [rep for rep in reports
               if rep["check_id"] == "transmutation.monomial_negative_control"]
    assert len(control) == 1
    assert control[0]["pass"] and control[0]["kind"] == "exceeds-floor"
    assert any("negative_control" in note for note in control[0]["notes"])


def test_verify_determinism_byte_identical():
    a = run_cli("verify", "rl", "--r", "2", "--seed", "11").stdout
    b = run_cli("verify", "rl", "--r", "2", "--seed", "11").stdout
    assert a == b


def test_transform_subcommand_csv(capsys):
    out = run_main(capsys, "transform", "--r", "2", "--mu", "0,0.5", "--a", "2",
                   "--lambda-grid", "0:1:2", "--input", "poly:0,1")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 3


def test_verify_invalid_order_exit_2():
    out = run_cli("verify", "eigen", "--r", "1", "--seed", "1")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_verify_json_reports_carry_pass_key(capsys):
    out = run_main(capsys, "verify", "dunkl-opdam", "--r", "2", "--seed", "4")
    reports = json.loads(out.stdout)
    assert reports and all("pass" in rep and "passed" not in rep for rep in reports)


@pytest.mark.parametrize("args,flag", [
    (("eval", "j", "--r", "2", "--alpha", "0,0.5", "--x-grid", "0:1:3", "--degree", "-5"),
     "--degree"),
    (("verify", "rl", "--r", "2", "--nodes", "0"), "--nodes"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid", "0:1:3", "--nodes", "-1"),
     "--nodes"),
])
def test_out_of_range_flags_exit_2_before_output(args, flag):
    out = run_cli(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert flag in out.stderr


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from rdunkl.cli import build_parser, main

    plain = ["eval", "j", "--r", "3", "--x-grid", "0:2:3"]
    assert main(plain) == 0
    first = capsys.readouterr().out
    assert main(["eval", "j", "--r", "3", "--alpha", "0,0.5,0.25", "--x-grid", "0:2:3"]) == 0
    assert capsys.readouterr().out != first
    assert main(plain) == 0
    assert capsys.readouterr().out == first
    assert build_parser() is build_parser()
    assert build_parser().parse_args(plain).alpha is None


def test_commands_resolve_at_call_time(monkeypatch):
    # the cached parser must not pin the command functions it saw when built,
    # or a wrapper installed later (a tracer, a test double) is bypassed
    from rdunkl import cli

    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_convert", lambda args: seen.append(args.values) or 0)
    assert cli.main(["convert", "--direction", "a-to-kappa", "--values", "0,3"]) == 0
    assert seen == ["0,3"]


@pytest.mark.parametrize("args,flag,grid", [
    (("eval", "cosr", "--r", "3"), "--x-grid", "-3:4:8"),
    (("eval", "j", "--r", "2", "--alpha", "0,0.5"), "--x-grid", "-2.5,-.5,1"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--a", "2", "--input", "poly:0,1"),
     "--lambda-grid", "-3:3:41"),
])
def test_negative_grid_value_after_its_flag(args, flag, grid, capsys):
    spaced = run_main(capsys, *args, flag, grid)
    joined = run_main(capsys, *args, f"{flag}={grid}")
    assert spaced.returncode == joined.returncode == 0
    assert spaced.stdout == joined.stdout and spaced.stdout.startswith("x,re,im\n")


def test_eval_refuses_an_unconverged_truncation():
    # degree 2 prints 1 - x^2/2 where cos x is meant: 1, 0.5, -1, -3.5
    out = run_cli("eval", "j", "--r", "2", "--alpha", "0,-0.5", "--x-grid", "0:3:4",
                  "--degree", "2")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "--degree" in out.stderr


def test_transform_refuses_before_printing():
    out = run_cli("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid=9:10:2")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "lambda=9" in out.stderr and "rounding estimate" in out.stderr


def test_transform_ignores_nodes_and_matches_quadrature(capsys):
    from rdunkl.hilbert import ray_poly
    from rdunkl.series import CyclicStructure
    from rdunkl.special import IndexVector
    from rdunkl.transforms import dunkl_transform_F

    args = ("transform", "--r", "3", "--mu", "0,0.5666666666666667,-0.6666666666666666",
            "--a", "2.7", "--lambda-grid=-3:3:7")
    out = run_main(capsys, *args)
    assert out.returncode == 0 and run_main(capsys, *args, "--nodes", "5").stdout == out.stdout
    rows = [[float(v) for v in line.split(",")] for line in out.stdout.splitlines()[1:]]
    mu = IndexVector(3, (0.0, 0.5666666666666667, -0.6666666666666666))
    g = ray_poly(CyclicStructure(3), [1.0], decay_scale=0.5)
    for lam, re, im in rows:
        want = dunkl_transform_F(mu, 2.7, g, lam, n_nodes=400)
        assert abs(complex(re, im) - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize("args,point", [
    (("eval", "cosr", "--r", "3", "--x-grid", "0,2000"), "x=2000"),
    (("eval", "cosr", "--r", "3", "--x-grid", "nan"), "x=nan"),
    (("eval", "j", "--r", "2", "--alpha", "0,0.5", "--x-grid", "inf"), "x=inf"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid", "inf"), "lambda=inf"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid", "1,nan"), "lambda=nan"),
    (("transform", "--r", "3", "--mu", "0,0.5,0.25", "--lambda-grid=-inf,2"), "lambda=-inf"),
])
def test_eval_refuses_a_non_finite_value_quietly(args, point, capsys):
    # one refusal path for every kind and for transform: exit 2, nothing on
    # stdout, and the point named on stderr with no numpy warning before it
    from rdunkl.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(args))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {point}: the value is not finite\n"


@pytest.mark.parametrize("args", [
    ("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid", "0:3:0"),
    ("eval", "j", "--r", "2", "--x-grid", "0:1:0"),
])
def test_empty_grid_is_refused(args, capsys):
    from rdunkl.cli import main

    code = main(list(args))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "has no points" in err


@pytest.mark.parametrize("args", [
    ("eval", "j", "--r", "2", "--alpha", "0,0.5", "--x-grid=0:inf:3"),
    ("eval", "E", "--r", "2", "--alpha", "0,0.5", "--x-grid=-inf:1:3"),
    ("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid=0:inf:3"),
    ("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid=nan:1:3"),
])
def test_non_finite_grid_end_is_refused_before_linspace(args):
    # in a fresh process, so a numpy warning printed once and then
    # suppressed by the warnings registry cannot hide
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "needs a finite start and stop" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


#: the option strings of each subcommand: only the flags its command reads
SUBCOMMAND_OPTIONS = {
    "eval": {"--r", "--alpha", "--degree", "--x-grid"},
    "verify": {"--r", "--seed", "--nodes", "--degree", "--tolerance-scale"},
    "convert": {"--r", "--direction", "--values"},
    "transform": {"--r", "--a", "--nodes", "--mu", "--lambda-grid", "--input"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    import argparse

    from rdunkl.cli import build_parser

    sub = next(act for act in build_parser()._actions
               if isinstance(act, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_OPTIONS)
    for name, parser in sub.choices.items():
        options = {opt for act in parser._actions for opt in act.option_strings
                   if opt not in ("-h", "--help")}
        assert options == SUBCOMMAND_OPTIONS[name], name
    assert build_parser().parse_args(
        ["transform", "--mu", "0,0.5", "--lambda-grid", "0:1:2"]).a == 1.0


@pytest.mark.parametrize("args", [
    ("eval", "j", "--r", "2", "--x-grid", "1", "--seed", "5"),
    ("eval", "j", "--r", "2", "--x-grid", "1", "--json"),
    ("verify", "eigen", "--r", "2", "--csv"),
    ("convert", "--direction", "a-to-kappa", "--values", "0,3", "--degree", "3"),
    ("transform", "--r", "2", "--mu", "0,0.5", "--lambda-grid", "0:1:2", "--alpha", "0,1"),
])
def test_dropped_flags_exit_2(args, capsys):
    from rdunkl.cli import main

    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("args,reason", [
    (("transform", "--r", "2", "--mu", "0,0.5", "--a", "1e308", "--lambda-grid", "0:1:3"),
     "the Gamma moments of the transform overflow at the weight exponent a = 1e+308"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--a", "inf", "--lambda-grid", "0:1:3"),
     "the weight exponent a must be finite, got inf"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--a", "nan", "--lambda-grid", "0:1:3"),
     "the weight exponent a must be finite, got nan"),
    (("transform", "--r", "2", "--mu", "0,inf", "--a", "1", "--lambda-grid", "0:1:3"),
     "alpha_1 must be finite, got inf"),
    (("eval", "j", "--r", "2", "--alpha", "0,inf", "--x-grid", "0:1:3"),
     "alpha_1 must be finite, got inf"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--input", "poly:1,inf", "--lambda-grid", "0:1:3"),
     "the coefficients of the input must be finite"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--a", "2", "--lambda-grid", "0,60"),
     "the moment series at |lambda| = 60 cannot be summed in double precision"),
])
def test_non_finite_or_overflowing_parameters_are_refused(args, reason, capsys):
    # the parameter is named, not a grid point, and no numpy warning comes first
    from rdunkl.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(args))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"
    assert "Warning" not in err
