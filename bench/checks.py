"""Correctness of one invocation's output, against independent oracles.

An invocation fails when its exit code differs from the pinned one, when a
gated verify report does not pass, or when a printed table value misses its
oracle:

- ``eval j`` (alpha_0 = 0): mpmath 0F_{r-1}(; alpha_1+1, ..., alpha_{r-1}+1; -(x/r)^r)
- ``eval cosr``: the r-term exponential average (1/r) sum_k exp(theta omega^k x) in mpmath
- ``eval E``: the Mehler quadrature ``mehler_E`` (E(0) = 1)
- ``transform``: ``dunkl_transform_F`` rerun with twice the CLI's nodes

Oracle values depend only on the argv (parsed by the CLI's own parser), so
they are computed once per distinct invocation and reused across passes.
"""

from __future__ import annotations

import json

import mpmath
import numpy as np

#: |got - want| <= TOL * (1 + |want|) per printed value
TOL = {"j": 1e-12, "cosr": 1e-12, "E": 1e-10, "transform": 1e-10}
#: report kinds without a verdict
UNGATED = {"measured"}


def _grid(text):
    start, stop, num = text.split(":")
    return np.linspace(float(start), float(stop), int(num))


def _oracle_j(args):
    r = args.r
    alphas = [float(v) for v in args.alpha.split(",")]
    if alphas[0] != 0.0:
        raise ValueError("the 0F_{r-1} oracle needs alpha_0 = 0")
    b = [mpmath.mpf(al) + 1 for al in alphas[1:]]
    xs = _grid(args.x_grid)
    with mpmath.workdps(40):
        return xs, np.array([complex(mpmath.hyper([], b, -(mpmath.mpf(float(x)) / r) ** r))
                             for x in xs])


def _oracle_cosr(args):
    r = args.r
    xs = _grid(args.x_grid)
    with mpmath.workdps(40):
        theta = mpmath.exp(1j * mpmath.pi / r)
        rots = [theta * mpmath.exp(2j * mpmath.pi * k / r) for k in range(r)]
        vals = [complex(sum(mpmath.exp(w * mpmath.mpf(float(x))) for w in rots) / r)
                for x in xs]
    return xs, np.array(vals)


def _oracle_E(args):
    from rdunkl.mehler import mehler_E
    from rdunkl.special import IndexVector

    mu = IndexVector(args.r, tuple(float(v) for v in args.alpha.split(",")))
    xs = _grid(args.x_grid)
    return xs, np.array([1.0 + 0j if x == 0 else mehler_E(mu, float(x), 48) for x in xs])


def _oracle_transform(args):
    from rdunkl.hilbert import ray_poly
    from rdunkl.series import CyclicStructure
    from rdunkl.special import IndexVector
    from rdunkl.transforms import dunkl_transform_F

    mu = IndexVector(args.r, tuple(float(v) for v in args.mu.split(",")))
    a = args.a if args.a is not None else 1.0
    c = CyclicStructure(args.r)
    if args.input == "gaussian":
        g = ray_poly(c, [1.0], decay_scale=0.5)
    else:
        g = ray_poly(c, [complex(v) for v in args.input[len("poly:"):].split(",")])
    lams = _grid(args.lambda_grid)
    n = 2 * max(4 * args.nodes, 200)
    return lams, np.array([dunkl_transform_F(mu, a, g, float(lam), n_nodes=n) for lam in lams])


ORACLES = {"j": _oracle_j, "cosr": _oracle_cosr, "E": _oracle_E, "transform": _oracle_transform}


class Checker:
    """Checks invocation outputs; caches oracle tables by argv."""

    def __init__(self):
        self._oracles = {}

    def oracle(self, argv):
        key = tuple(argv)
        if key not in self._oracles:
            from rdunkl.cli import build_parser

            args = build_parser().parse_args(list(argv))
            kind = "transform" if args.command == "transform" else args.kind
            self._oracles[key] = ORACLES[kind](args)
        return self._oracles[key]

    def check(self, inv, code, stdout):
        """(items, problem): the number of report objects or table rows
        printed, and None or a one-line reason the invocation failed."""
        if code != inv.expect_exit:
            return 0, f"exit code {code}, expected {inv.expect_exit}"
        if inv.command == "verify":
            return _check_reports(stdout)
        return self._check_table(inv, stdout)

    def _check_table(self, inv, stdout):
        lines = stdout.splitlines()
        if not lines or lines[0] != "x,re,im":
            return 0, "missing CSV header"
        try:
            rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        except ValueError as exc:
            return len(lines) - 1, f"unparsable row: {exc}"
        xs, want = self.oracle(inv.argv)
        if rows.shape != (len(xs), 3):
            return len(rows), f"table shape {rows.shape}, expected ({len(xs)}, 3)"
        if np.any(np.abs(rows[:, 0] - xs) > 1e-14 * (1.0 + np.abs(xs))):
            return len(rows), "grid column differs from the requested grid"
        got = rows[:, 1] + 1j * rows[:, 2]
        kind = "transform" if inv.command == "transform" else inv.argv[1]
        err = np.abs(got - want) / (1.0 + np.abs(want))
        worst = int(np.argmax(err))
        if not err[worst] <= TOL[kind]:
            return len(rows), (f"row {worst + 1} (x={xs[worst]:.6g}) off its oracle by "
                               f"{err[worst]:.2e} > {TOL[kind]:.0e}")
        return len(rows), None


def _check_reports(stdout):
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return 0, f"unparsable report JSON: {exc}"
    failed = [rep["check_id"] for rep in reports
              if rep.get("kind") not in UNGATED and rep.get("pass") is not True]
    if failed:
        return len(reports), "gated reports failed: " + ", ".join(failed)
    return len(reports), None
