"""Command-line surface: evaluation tables, verification suites, parameter
conversion, and transform sampling.

Exit codes: 0 when every gated check passes, 1 when some check fails,
2 on invalid parameters.  Reports are JSON arrays sorted by check_id;
tables are CSV with header exactly "x,re,im" and 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._errors import RdunklError
from .series import CyclicStructure, evaluate
from .special import IndexVector, bessel_j_series, cos_r_value
from .operators import dunkl_kernel_series
from .verify import SUITES, run_suites


def _fmt(v: float) -> str:
    """15 significant digits with trailing zeros kept; exact integers and
    zero print plain."""
    if v == 0.0:
        return "0"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    s = np.format_float_positional(v, precision=15, unique=False, fractional=False)
    sig, seen_nonzero = 0, False
    for ch in s:
        if ch.isdigit():
            if ch != "0":
                seen_nonzero = True
            if seen_nonzero:
                sig += 1
    if "." in s:
        s += "0" * max(0, 15 - sig)
    return s


def _parse_alphas(text: str, r: int | None):
    vals = tuple(float(x) for x in text.split(","))
    rr = r if r is not None else len(vals)
    return IndexVector(rr, vals)


def _parse_grid(text: str):
    # "start:stop:num" or a comma list
    if ":" in text:
        start, stop, num = text.split(":")
        return np.linspace(float(start), float(stop), int(num))
    return np.array([float(x) for x in text.split(",")])


def _int_at_least(low: int):
    """argparse type for an integer flag >= low; argparse names the flag in
    its error and exits 2 before any command runs."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-number as "invalid int value"
    return parse


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--r", type=int, default=2, help="cyclic order")
    p.add_argument("--alpha", type=str, default=None,
                   help="comma list alpha_0,...,alpha_{r-1}")
    p.add_argument("--a", type=float, default=None, help="inner-product weight exponent")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized draws")
    p.add_argument("--nodes", type=_int_at_least(1), default=48,
                   help="quadrature nodes per dimension")
    p.add_argument("--degree", type=_int_at_least(0), default=60,
                   help="series truncation degree")
    p.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="multiplies every gated tolerance")
    p.add_argument("--json", action="store_true", help="force JSON output")
    p.add_argument("--csv", action="store_true", help="force CSV output")


def cmd_eval(args) -> int:
    if args.alpha is not None:
        mu = _parse_alphas(args.alpha, args.r)
    else:
        mu = IndexVector(args.r, tuple(-k / args.r for k in range(args.r)))
    c = CyclicStructure(args.r)
    xs = _parse_grid(args.x_grid)
    print("x,re,im")
    if args.kind == "j":
        ser = bessel_j_series(mu, args.degree)
        vals = [evaluate(ser, x) for x in xs]
    elif args.kind == "E":
        ser = dunkl_kernel_series(mu, 1.0, args.degree)
        vals = [evaluate(ser, x) for x in xs]
    elif args.kind == "cosr":
        vals = cos_r_value(c, xs)
    else:
        raise RdunklError(f"unknown kind {args.kind}")
    for x, v in zip(xs, vals):
        v = complex(v)
        print(f"{_fmt(float(x))},{_fmt(v.real)},{_fmt(v.imag)}")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.r, args.seed, args.nodes, args.degree,
                         args.tolerance_scale)
    print(json.dumps([rep.to_dict() for rep in reports], indent=2, sort_keys=True,
                     allow_nan=False))
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_convert(args) -> int:
    from .dunkl_opdam import KappaVector, NoSolution, a_to_kappa, kappa_to_a

    c = CyclicStructure(args.r)
    vals = [complex(x) for x in args.values.split(",")]
    if args.direction == "kappa-to-a":
        kap = KappaVector(args.r, tuple(vals))
        a = kappa_to_a(kap, c)
        print(json.dumps({"solvable": True,
                          "a": [[v.real, v.imag] for v in a]}, sort_keys=True))
    else:
        res = a_to_kappa(vals, c)
        if isinstance(res, NoSolution):
            print(json.dumps({"solvable": False, "residual": res.residual}, sort_keys=True))
        else:
            print(json.dumps({"solvable": True,
                              "kappa": [[v.real, v.imag] for v in res.kappas]},
                             sort_keys=True))
    return 0


def cmd_transform(args) -> int:
    from .hilbert import ray_poly
    from .transforms import dunkl_transform_F

    mu = _parse_alphas(args.mu, args.r)
    a = args.a if args.a is not None else 1.0
    c = CyclicStructure(args.r)
    if args.input == "gaussian":
        g = ray_poly(c, [1.0], decay_scale=0.5)
    elif args.input.startswith("poly:"):
        coeffs = [complex(x) for x in args.input[5:].split(",")]
        g = ray_poly(c, coeffs)
    else:
        raise RdunklError(f"unknown input {args.input!r}")
    lams = _parse_grid(args.lambda_grid)
    print("x,re,im")
    for lam in lams:
        v = dunkl_transform_F(mu, a, g, float(lam), n_nodes=max(args.nodes * 4, 200))
        print(f"{_fmt(float(lam))},{_fmt(v.real)},{_fmt(v.imag)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rdunkl",
                                 description="cyclic Dunkl operator calculus and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate j, the kernel, or cos_r on a grid")
    _common_flags(p)
    p.add_argument("kind", choices=["j", "E", "cosr"])
    p.add_argument("--x-grid", type=str, required=True, help="start:stop:num or comma list")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite, emit JSON reports")
    _common_flags(p)
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("convert", help="translate between kappa and a coefficients")
    _common_flags(p)
    p.add_argument("--direction", choices=["kappa-to-a", "a-to-kappa"], required=True)
    p.add_argument("--values", type=str, required=True, help="comma list")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("transform", help="sample the r-Dunkl transform on a lambda grid")
    _common_flags(p)
    p.add_argument("--mu", type=str, required=True, help="comma list of alphas")
    p.add_argument("--lambda-grid", type=str, required=True)
    p.add_argument("--input", type=str, default="gaussian",
                   help="gaussian or poly:c0,c1,...")
    p.set_defaults(fn=cmd_transform)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except RdunklError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
