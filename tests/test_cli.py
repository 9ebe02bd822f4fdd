import json
import math
import subprocess
import sys

import pytest

from rdunkl.reports import VerificationReport, make_report


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "rdunkl", *args],
                          capture_output=True, text=True)


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


def test_eval_j_cosine_value():
    out = run_cli("eval", "j", "--r", "2", "--alpha", "0,-0.5", "--x-grid", "1:1:1")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "x,re,im"
    x, re, im = lines[1].split(",")
    assert re == "0.540302305868140"
    assert im == "0"


def test_eval_cosr_at_zero():
    out = run_cli("eval", "cosr", "--r", "3", "--x-grid", "0:0:1")
    assert out.returncode == 0
    assert out.stdout.strip().splitlines()[1] == "0,1,0"


def test_eval_cosr_is_real_on_the_real_grid():
    out = run_cli("eval", "cosr", "--r", "5", "--x-grid=-3:4:8")
    assert out.returncode == 0
    rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
    assert len(rows) == 8 and all(im == "0" for _, _, im in rows)


def test_eval_kernel_degenerate_is_complex_exponential():
    out = run_cli("eval", "E", "--r", "2", "--x-grid", "1:1:1")
    line = out.stdout.strip().splitlines()[1]
    _, re, im = line.split(",")
    assert abs(float(re) - math.cos(1.0)) < 1e-13
    assert abs(float(im) - math.sin(1.0)) < 1e-13
    assert re == "0.540302305868140" and im == "0.841470984807897"


def test_eval_bad_parameters_exit_2():
    out = run_cli("eval", "j", "--r", "2", "--alpha", "0,-2", "--x-grid", "0:1:2")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_convert_directions():
    out = run_cli("convert", "--r", "2", "--direction", "a-to-kappa", "--values", "0,3")
    data = json.loads(out.stdout)
    assert data["solvable"] is True
    assert abs(data["kappa"][0][0] - 1.5) < 1e-12
    out = run_cli("convert", "--r", "2", "--direction", "a-to-kappa", "--values", "1,0")
    data = json.loads(out.stdout)
    assert data["solvable"] is False and abs(data["residual"] - 0.5) < 1e-12
    assert out.returncode == 0  # no-solution is a value, not an error
    out = run_cli("convert", "--r", "2", "--direction", "kappa-to-a", "--values", "1.2")
    data = json.loads(out.stdout)
    assert data["solvable"] is True
    assert abs(data["a"][1][0] - 2.4) < 1e-12


def test_verify_single_suite_json_and_exit():
    out = run_cli("verify", "eigen", "--r", "3", "--seed", "7")
    assert out.returncode == 0
    reports = json.loads(out.stdout)
    assert all(rep["pass"] for rep in reports)
    ids = [rep["check_id"] for rep in reports]
    assert ids == sorted(ids)


def test_verify_transmutation_r3_negative_control_labeled():
    out = run_cli("verify", "transmutation", "--r", "3", "--seed", "3")
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


def test_transform_subcommand_csv():
    out = run_cli("transform", "--r", "2", "--mu", "0,0.5", "--a", "2",
                  "--lambda-grid", "0:1:2", "--input", "poly:0,1")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 3


def test_verify_invalid_order_exit_2():
    out = run_cli("verify", "eigen", "--r", "1", "--seed", "1")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_verify_json_reports_carry_pass_key():
    out = run_cli("verify", "dunkl-opdam", "--r", "2", "--seed", "4")
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
