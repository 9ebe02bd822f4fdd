"""rdunkl benchmark: closed-loop CLI invocations with output checks.

Usage (from the repository root):

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

One process drives ``rdunkl.cli.main`` in-process with one client: each
invocation starts after the previous one returned, its stdout is captured
and checked (see checks.py).  A run repeats whole workload passes until
``--seconds`` of invocation time have elapsed (and, where the workload asks
for it, until the tail percentile has ten samples beyond it).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
budget untraced and half with every public rdunkl function wrapped (see
tracing.py), and prints the per-layer metrics, normalised per pass.  The last
stdout line is the result object; BLAS runs on one thread.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is imported anywhere

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 7
SETUP_CODE = "import rdunkl.cli as cli; cli.build_parser()"


@dataclass
class Phase:
    """What one measured phase (a whole number of passes) produced."""
    passes: int = 0
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest_mismatches: int = 0
    samples: list = field(default_factory=list)    # wall seconds per invocation
    pass_rates: list = field(default_factory=list)  # items per second of each pass
    problems: list = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        """Median over passes, so a short host stall inside one pass does
        not move the run's figure."""
        return statistics.median(self.pass_rates)


def run_cli(cli, inv):
    """One in-process invocation: (exit code, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(inv.argv))
        except SystemExit as exc:  # argparse rejects flags this way
            code = exc.code
        except Exception as exc:  # a crash is a failed invocation, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - t0


def run_phase(invocations, seconds, min_samples, runner, checker, digests, tracer=None):
    """Repeat whole passes until `seconds` of invocation time and
    `min_samples` invocations have accumulated."""
    ph = Phase()
    while ph.passes == 0 or ph.timed_s < seconds or len(ph.samples) < min_samples:
        pass_items, pass_s = 0, 0.0
        for inv in invocations:
            if tracer is not None:
                tracer.request = ph.attempted + 1
            code, stdout, dt = runner(inv)
            ph.attempted += 1
            pass_s += dt
            ph.samples.append(dt)
            items, problem = checker.check(inv, code, stdout)
            if problem is None:
                pass_items += items
            else:
                ph.failed += 1
                ph.problems.append(f"{inv.key}: {problem}")
            want = digests.get(inv.key)
            if want is not None and hashlib.sha256(stdout.encode()).hexdigest() != want:
                ph.digest_mismatches += 1
        ph.passes += 1
        ph.timed_s += pass_s
        ph.pass_rates.append(pass_items / pass_s)
    return ph


def measure_setup():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment():
    import mpmath
    import scipy

    commit = None
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.CalledProcessError, ValueError):
        pass  # not a git checkout
    h = hashlib.sha256()
    for path in sorted((SRC / "rdunkl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_ENV,
            "commit": commit, "src_sha256": h.hexdigest()}


def end_to_end(workload, ph, setup_s):
    p50, tail = np.percentile(ph.samples, [50.0, workload.tail_pct])
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (ph.items_per_s, "1/s"),
        "invocation_p50_s": (float(p50), "s"),
        "invocation_tail_s": (float(tail), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rdunkl" / "cli.py").is_file():
        print(f"error: no rdunkl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    workload = workloads.WORKLOADS[args.workload]
    invocations = workloads.make_pass(args.workload, args.seed)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    setup_s = measure_setup() if args.trace == 0 else None
    from rdunkl import cli

    checker = checks.Checker()
    for inv in invocations:  # oracle tables are built before any timing
        if inv.command != "verify":
            checker.oracle(inv.argv)
    runner = lambda inv: run_cli(cli, inv)  # noqa: E731

    if args.trace == 0:
        phases = [run_phase(invocations, args.seconds, workload.min_samples, runner,
                            checker, digests)]
        metrics = end_to_end(workload, phases[0], setup_s)
    else:
        from tracing import Tracer, layer_metrics

        plain = run_phase(invocations, args.seconds / 2, 1, runner, checker, digests)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(invocations, args.seconds / 2, 1, runner, checker, digests,
                               tracer)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        metrics = layer_metrics(tracer, traced.passes)
        metrics["cli.digest_mismatches"] = (traced.digest_mismatches / traced.passes, "count")
        metrics["trace.overhead_items_per_s"] = (traced.items_per_s - plain.items_per_s, "1/s")
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for problem in p.problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(invocations)} invocations per "
          f"pass, {' + '.join(str(p.passes) for p in phases)} passes, "
          f"{attempted} invocations, failed_share {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    if args.trace == 0:
        print(f"invocation_tail_s is p{workload.tail_pct:g} of {len(phases[0].samples)} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")
    print(json.dumps({"env": environment()}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
