"""Workload definitions: the CLI invocations of one pass, drawn from a seed.

Every input is drawn from a small finite table, so the whole input space can
be enumerated (``space``) and checked once by ``record.py``; the program only
ever sees the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: verify seeds a workload may draw
VERIFY_SEEDS = tuple(range(8))

EX9 = "0,0.5666666666666667,-0.6666666666666666"  # (0, 0.9 - 1/3, -2/3)

#: (r, mu, a, input) of the transform-grid cases
TRANSFORM_CASES = (
    ("2", "0,0.5", "2", "poly:0,1"),
    ("3", EX9, "2.7", "gaussian"),
    ("4", "0,0.5,0.5,0.5", "2", "gaussian"),
)
LAMBDA_MAX = ("2.8", "2.85", "2.9", "2.95", "3")
LAMBDA_POINTS = 41

SERIES_SUITES = ("eigen", "power", "transmutation", "dunkl-opdam")
SERIES_DEGREES = ("60", "200")
EVAL_POINTS = 2001
#: (kind, r, alpha or None, x_max choices); alpha_0 = 0 throughout so the
#: mpmath 0F_{r-1} oracle applies to j, and every grid stays inside the
#: range where the degree-60 truncation is certified by that oracle
EVAL_CASES = (
    ("j", "2", "0,0.5", ("8", "9", "10")),
    ("j", "3", "0,0.5,0.25", ("8", "9", "10")),
    ("j", "4", "0,0.75,0.5,0.25", ("8", "9", "10")),
    ("j", "5", "0,0.2,0.4,0.6,0.8", ("8", "9", "10")),
    ("E", "2", "0,0.5", ("3", "4", "5")),
    ("E", "3", EX9, ("3", "4", "5")),
    ("cosr", "2", None, ("6", "8", "10")),
    ("cosr", "3", None, ("6", "8", "10")),
    ("cosr", "4", None, ("6", "8", "10")),
    ("cosr", "5", None, ("6", "8", "10")),
)


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expect_exit: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _verify(suite, r, seed, degree=None):
    argv = ("verify", suite, "--r", str(r), "--seed", str(seed))
    if degree is not None:
        argv += ("--degree", degree)
    return Invocation(argv)


def _transform(case, lmax):
    r, mu, a, inp = case
    return Invocation(("transform", "--r", r, "--mu", mu, "--a", a, "--input", inp,
                       f"--lambda-grid=-{lmax}:{lmax}:{LAMBDA_POINTS}"))


def _eval(case, xmax):
    kind, r, alpha, _ = case
    argv = ("eval", kind, "--r", r)
    if alpha is not None:
        argv += ("--alpha", alpha)
    return Invocation(argv + ("--x-grid", f"0:{xmax}:{EVAL_POINTS}"))


def verify_sweep():
    return [[_verify("all", r, s) for s in VERIFY_SEEDS] for r in (2, 3, 4, 5)]


def transform_grid():
    return [[_transform(case, lm) for lm in LAMBDA_MAX] for case in TRANSFORM_CASES]


def series_exact():
    return ([[_verify(s, r, seed, d) for seed in VERIFY_SEEDS]
             for s in SERIES_SUITES for d in SERIES_DEGREES for r in (2, 3, 4, 5)]
            + [[_eval(case, xm) for xm in case[3]] for case in EVAL_CASES])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: object     # () -> list of slots, each a list of candidate Invocations
    tail_pct: float   # percentile reported as invocation_tail_s
    min_samples: int  # invocations needed for ten samples beyond it


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-sweep",
                 "verify all for r=2..5: many small Gauss rules built and used once, "
                 "per-point R* loops and the r=5 Mehler tensor grid",
                 verify_sweep, 100.0, 1),
        Workload("transform-grid",
                 "transform on dense lambda grids for r=2,3,4: a few large rules reused "
                 "across many kernel evaluations",
                 transform_grid, 90.0, 100),
        Workload("series-exact",
                 "coefficient-exact verify suites and eval tables: no Gauss rule at all, "
                 "many short invocations",
                 series_exact, 90.0, 100),
    )
}


def make_pass(workload: str, seed: int) -> list:
    """One pass: a draw from each slot of the workload, in slot order."""
    rng = random.Random(seed)
    return [rng.choice(slot) for slot in WORKLOADS[workload].slots()]


def space(workload: str) -> list:
    """Every invocation the workload can generate, for any seed."""
    return [inv for slot in WORKLOADS[workload].slots() for inv in slot]
