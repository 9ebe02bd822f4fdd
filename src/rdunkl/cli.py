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
from functools import lru_cache

import numpy as np

from ._errors import ParameterError, RdunklError, SeriesOverflowError
from .series import CyclicStructure, LaurentSeries, evaluate
from .special import IndexVector, bessel_j_series, cos_r_value
from .operators import dunkl_kernel_series
from .verify import SUITES, run_suites


def _fmt(v: float) -> str:
    """15 significant digits with trailing zeros kept; exact integers and
    zero print plain.  A value that "#.15g" writes in exponent form
    (|v| < 1e-4 or >= 1e15) keeps those 15 digits, written positionally."""
    if v == 0.0:
        return "0"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    s = f"{v:#.15g}"
    if "e" not in s:
        return s
    mantissa, exp = s.split("e")
    sign = "-" if mantissa[0] == "-" else ""
    digits = mantissa.lstrip("-").replace(".", "")
    e = int(exp)
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    return f"{sign}{digits}{'0' * (e - 14)}."


def _fmt_column(v) -> list:
    """``_fmt`` of every value of a float array.  Zero and the integers with
    |v| < 1e15 print plain, and a non-integer with 2e-4 <= |v| < 5e14 is one
    "#.15g" format, which is positional there, each exactly what ``_fmt``
    returns; only the values "#.15g" writes in exponent form call ``_fmt``."""
    mags = np.abs(v)
    whole = ((np.trunc(v) == v) & (mags < 1e15)).tolist()
    plain = ((mags >= 2e-4) & (mags < 5e14)).tolist()
    return [str(int(x)) if w else f"{x:#.15g}" if p else _fmt(x)
            for x, w, p in zip(v.tolist(), whole, plain)]


def _write_table(xs, vals):
    """The "x,re,im" CSV table of complex values on a real grid array,
    written to stdout in one call."""
    vals = np.asarray(vals, dtype=complex)
    rows = [f"{x},{re},{im}\n" for x, re, im in zip(
        _fmt_column(xs), _fmt_column(vals.real), _fmt_column(vals.imag))]
    sys.stdout.write("x,re,im\n" + "".join(rows))


def _parse_alphas(text: str, r: int | None):
    vals = tuple(float(x) for x in text.split(","))
    rr = r if r is not None else len(vals)
    return IndexVector(rr, vals)


def _parse_grid(text: str):
    # "start:stop:num" or a comma list; a count num <= 0 gives no points
    try:
        if ":" in text:
            start, stop, num = text.split(":")
            start, stop, num = float(start), float(stop), int(num)
        else:
            grid = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ParameterError(f"grid {text!r} is neither start:stop:num with a whole "
                             "number num nor a comma list of numbers") from None
    if ":" in text:
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise ParameterError(f"grid {text!r} needs a finite start and stop")
        grid = np.linspace(start, stop, max(num, 0))
    if grid.size < 1:
        raise ParameterError(f"grid {text!r} has no points")
    return grid


def _refuse_uncertified(where: str, grid, vals, err, tol: float, what: str):
    """Raise unless every value is finite with err <= tol (1 + |value|); a NaN
    estimate never passes.  The message names the first failing grid point
    and says so when the value or the estimate there is not finite."""
    vals, err = np.asarray(vals), np.asarray(err)
    ok = np.isfinite(vals) & (err <= tol * (1.0 + np.abs(vals)))
    if not np.all(ok):
        i = int(np.argmin(ok))
        at = f"{where}={float(grid[i]):g}"
        if not np.isfinite(vals[i]):
            raise SeriesOverflowError(f"{at}: the value is not finite")
        if not np.isfinite(err[i]):
            raise SeriesOverflowError(f"{at}: {what} is not finite")
        raise SeriesOverflowError(
            f"{at}: {what} {float(err[i]):.3g} exceeds "
            f"{tol:g} * (1 + |value|) = {tol * (1.0 + abs(complex(vals[i]))):.3g}")


def _checked(kind, ok, requirement: str):
    """argparse type: ``kind(text)``, refused unless ``ok`` holds for it;
    argparse names the flag in its error and exits 2 before any command runs."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    parse.__name__ = kind.__name__  # so argparse reports "invalid int value: ..."
    return parse


#: the shared value flags; each subcommand takes only the ones it reads
_FLAGS = {
    "--r": dict(type=int, default=2, help="cyclic order"),
    "--alpha": dict(type=str, default=None, help="comma list alpha_0,...,alpha_{r-1}"),
    "--a": dict(type=float, default=1.0, help="weight exponent of the transform pairing"),
    "--seed": dict(type=int, default=0, help="seed for randomized draws"),
    "--nodes": dict(type=_checked(int, lambda v: v >= 1, ">= 1"), default=48,
                    help="quadrature nodes per dimension"),
    "--degree": dict(type=_checked(int, lambda v: v >= 0, ">= 0"), default=60,
                     help="series truncation degree"),
    "--tolerance-scale": dict(type=_checked(float, lambda v: 0.0 < v < float("inf"),
                                            "finite and > 0"), default=1.0,
                              help="multiplies the tolerance of every residual-below check"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str):
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def cmd_eval(args) -> int:
    if args.alpha is not None:
        mu = _parse_alphas(args.alpha, args.r)
    else:
        mu = IndexVector(args.r, tuple(-k / args.r for k in range(args.r)))
    xs = _parse_grid(args.x_grid)
    # a value that overflows is refused by its finiteness check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if args.kind == "cosr":
            vals = cos_r_value(CyclicStructure(args.r), xs)
            _refuse_uncertified("x", xs, vals, np.zeros(xs.shape), 0.0, "cos_r")
        else:
            vals = _certified_series_values(mu, args.kind, args.degree, xs)
    _write_table(xs, vals)
    return 0


#: bound on the magnitude of a series coefficient that underflowed to zero
_SMALLEST_SUBNORMAL = np.nextafter(0.0, 1.0)


def _certified_series_values(mu: IndexVector, kind: str, degree: int, xs):
    """Values of the degree-``degree`` series of j_mu or E_mu on the grid, by
    one Horner pass over the whole grid, refused unless the next r degrees,
    sum |c_n| |x|^n, stay below 1e-12 (1 + |value|) at every x."""
    r = mu.r
    if kind == "j":
        ser = bessel_j_series(mu, degree + r)
    else:
        ser = dunkl_kernel_series(mu, 1.0, degree + r)
    head = LaurentSeries(ser.n_min, ser.coeffs[: degree - ser.n_min + 1], degree)
    vals = evaluate(head, xs)
    # the tail terms in logs, so an underflowed |c_n| times an overflowed
    # |x|^n is not 0 * inf = NaN; a stored zero counts as the smallest
    # subnormal, the largest magnitude that can round to it
    next_mags = np.abs(ser.coeffs[degree - ser.n_min + 1:])
    log_c = np.log(np.maximum(next_mags, _SMALLEST_SUBNORMAL))[:, None]
    degs = np.arange(degree + 1, degree + r + 1)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_pow = np.where(degs == 0, 0.0, degs * np.log(np.abs(xs)))
        tail = np.exp(log_c + log_pow).sum(axis=0)
    _refuse_uncertified("x", xs, vals, tail, 1e-12,
                        f"the --degree {degree} truncation is not converged; tail estimate")
    return vals


def _non_finite_field(obj, path: str = ""):
    """``path = value`` of the first non-finite float in a JSON-ready tree of
    dicts and lists (paths like ``a[1][0]``, keys in sorted order), or None."""
    if isinstance(obj, float):
        return None if np.isfinite(obj) else f"{path} = {obj}"
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in sorted(obj.items()))
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, v in items:
        hit = _non_finite_field(v, sub)
        if hit is not None:
            return hit
    return None


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.r, args.seed, args.nodes, args.degree,
                         args.tolerance_scale)
    dicts = [rep.to_dict() for rep in reports]
    try:
        text = json.dumps(dicts, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        # JSON has no inf or NaN: refuse (exit 2) and name the check
        for d in dicts:
            hit = _non_finite_field(d)
            if hit is not None:
                raise RdunklError(f"check {d['check_id']}: {hit} is not finite") from None
        raise
    print(text)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_convert(args) -> int:
    from .dunkl_opdam import KappaVector, NoSolution, a_to_kappa, kappa_to_a

    c = CyclicStructure(args.r)
    vals = [complex(x) for x in args.values.split(",")]
    if args.direction == "kappa-to-a":
        a = kappa_to_a(KappaVector(args.r, tuple(vals)), c)
        out = {"solvable": True, "a": [[v.real, v.imag] for v in a]}
    else:
        res = a_to_kappa(vals, c)
        if isinstance(res, NoSolution):
            out = {"solvable": False, "residual": res.residual}
        else:
            out = {"solvable": True, "kappa": [[v.real, v.imag] for v in res.kappas]}
    try:
        text = json.dumps(out, sort_keys=True, allow_nan=False)
    except ValueError:
        # an output that overflows is refused (exit 2) and named, not printed as Infinity
        raise ParameterError(
            f"--values {args.values}: the output {_non_finite_field(out)} overflows") from None
    print(text)
    return 0


def cmd_transform(args) -> int:
    from .hilbert import ray_poly
    from .transforms import moment_transform

    mu = _parse_alphas(args.mu, args.r)
    c = CyclicStructure(args.r)
    if args.input == "gaussian":
        g = ray_poly(c, [1.0], decay_scale=0.5)
    elif args.input.startswith("poly:"):
        coeffs = [complex(x) for x in args.input[5:].split(",")]
        g = ray_poly(c, coeffs)
    else:
        raise RdunklError(f"unknown input {args.input!r}")
    lams = _parse_grid(args.lambda_grid)
    vals, err = moment_transform(mu, args.a, g, lams)
    _refuse_uncertified("lambda", lams, vals, err, 1e-10,
                        "F(lambda) is not certified; rounding estimate")
    _write_table(lams, vals)
    return 0


#: flags whose value may start with "-" (a negative grid start)
_GRID_FLAGS = ("--x-grid", "--lambda-grid")
_NEGATIVE_STARTS = tuple("-" + ch for ch in "0123456789.")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that joins ``--x-grid -3:4:8`` into ``--x-grid=-3:4:8``:
    argparse reads a separate value starting with "-" as a flag unless it is
    a plain negative number."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        out = []
        for arg in args:
            if out and out[-1] in _GRID_FLAGS and arg[:2] in _NEGATIVE_STARTS:
                out[-1] = f"{out[-1]}={arg}"
            else:
                out.append(arg)
        return super().parse_known_args(out, namespace)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rdunkl", description="cyclic Dunkl operator calculus and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate j, the kernel, or cos_r on a grid")
    _add_flags(p, "--r", "--alpha", "--degree")
    p.add_argument("kind", choices=["j", "E", "cosr"])
    p.add_argument("--x-grid", type=str, required=True, help="start:stop:num or comma list")

    p = sub.add_parser("verify", help="run a verification suite, emit JSON reports")
    _add_flags(p, "--r", "--seed", "--nodes", "--degree", "--tolerance-scale")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])

    p = sub.add_parser("convert", help="translate between kappa and a coefficients")
    _add_flags(p, "--r")
    p.add_argument("--direction", choices=["kappa-to-a", "a-to-kappa"], required=True)
    p.add_argument("--values", type=str, required=True, help="comma list")

    p = sub.add_parser("transform", help="sample the r-Dunkl transform on a lambda grid")
    _add_flags(p, "--r", "--a", "--nodes")
    p.add_argument("--mu", type=str, required=True, help="comma list of alphas")
    p.add_argument("--lambda-grid", type=str, required=True)
    p.add_argument("--input", type=str, default="gaussian",
                   help="gaussian or poly:c0,c1,...")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # resolved per call, not stored in the cached parser, so the names
        # bound in this module at call time are the ones that run
        command = {"eval": cmd_eval, "verify": cmd_verify, "convert": cmd_convert,
                   "transform": cmd_transform}[args.command]
        return command(args)
    except RdunklError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
