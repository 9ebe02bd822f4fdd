"""Self-tests of the benchmark harness.

Usage (from the repository root; takes about two minutes):

    python3 bench/selftest.py

- wrapper call counts equal cProfile ncalls on ``verify all --r 2 --seed 1``;
- traced stdout is byte-identical to untraced stdout;
- a corrupted output row, or a wrong exit code, counts as a failed invocation;
- every metric a run emits is declared in BENCHMARK.json, with its unit;
- without the program's sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
import traceback

from run import HERE, ROOT, SPANS_DIR, SRC, run_cli, run_phase

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from rdunkl import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

VERIFY_R2 = workloads.Invocation(("verify", "all", "--r", "2", "--seed", "1"))


def _traced(inv):
    tracer = Tracer()
    tracer.install()
    try:
        return run_cli(cli, inv), tracer
    finally:
        tracer.uninstall()


def test_wrapper_counts_match_cprofile():
    prof = cProfile.Profile()
    prof.runcall(run_cli, cli, VERIFY_R2)
    ncalls = {key: val[1] for key, val in pstats.Stats(prof).stats.items()}
    _, tracer = _traced(VERIFY_R2)
    src = str(SRC / "rdunkl")
    compared = 0
    for name, key in tracer.code_keys.items():
        if not key[0].startswith(src):
            continue  # the json encoder proxy
        assert tracer.calls[name] == ncalls.get(key, 0), \
            f"{name}: wrapper saw {tracer.calls[name]} calls, cProfile {ncalls.get(key, 0)}"
        compared += tracer.calls[name] > 0
    assert compared >= 50, f"only {compared} called functions compared"
    for name in ("quadrature.gauss_jacobi_rule", "quadrature.gauss_legendre_rule",
                 "transmutation.ray_eval", "verify.suite_rl",
                 "reports.VerificationReport.to_dict"):
        assert tracer.calls[name] > 0, f"{name} never seen"


def test_traced_stdout_identical():
    invs = [VERIFY_R2] + [workloads.make_pass(w, 0)[-1] for w in ("transform-grid", "series-exact")]
    for inv in invs:
        code, out, _ = run_cli(cli, inv)
        (tcode, tout, _), _ = _traced(inv)
        assert (code, out) == (tcode, tout), f"traced output differs for {inv.key}"


def test_corrupted_output_fails():
    invs = [workloads.Invocation(("eval", "cosr", "--r", "3", "--x-grid", "0:6:2001")),
            workloads.Invocation(("verify", "eigen", "--r", "2", "--seed", "0")),
            workloads.Invocation(("verify", "power", "--r", "3", "--seed", "0"), expect_exit=1)]

    def corrupting(inv):
        code, out, dt = run_cli(cli, inv)
        if inv.command == "eval":
            lines = out.splitlines(keepends=True)
            x, re, im = lines[7].rstrip("\n").split(",")
            lines[7] = f"{x},{float(re) * (1 + 1e-9)!r},{im}\n"
            out = "".join(lines)
        return code, out, dt

    ph = run_phase(invs, 0.0, 1, corrupting, checks.Checker(), {})
    assert ph.attempted == 3 and ph.failed == 2, ph.problems
    assert "off its oracle" in ph.problems[0] and "exit code 0" in ph.problems[1], ph.problems
    clean = run_phase(invs[:2], 0.0, 1, lambda inv: run_cli(cli, inv), checks.Checker(), {})
    assert clean.failed == 0, clean.problems


def _bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in ("transform-grid", "series-exact"):
        for trace in (0, 1):
            code, out = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace)])
            assert code == 0, out
            result = json.loads(out.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared[trace], (workload, trace, emitted)


def test_no_sources_no_result():
    bare = SPANS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out = _bench(["--workload", "series-exact", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and '"metrics"' not in out, (code, out)


def main() -> int:
    SPANS_DIR.mkdir(exist_ok=True)
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}", flush=True)
            except Exception:
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
