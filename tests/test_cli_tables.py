"""The CLI table path: whole-grid series evaluation, the fast number
formatter, the refusal reasons, and golden stdout digests of table commands."""

import hashlib
import json
from decimal import Decimal

import numpy as np
import pytest

import rdunkl.transmutation as transmutation
from rdunkl.cli import _certified_series_values, _fmt, _write_table, main
from rdunkl.mehler import MehlerWeight
from rdunkl.operators import dunkl_kernel_series
from rdunkl.riemann_liouville import product_factorization_check
from rdunkl.series import LaurentSeries, evaluate
from rdunkl.special import IndexVector, bessel_j_series

EX9 = "0,0.5666666666666667,-0.6666666666666666"  # (0, 0.9 - 1/3, -2/3)


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- whole-grid evaluation --------------------------------------------------

def _per_point_values(mu, kind, degree, xs):
    """Oracle: the degree-`degree` truncation evaluated one grid point at a
    time, as the table path did before it evaluated the whole grid."""
    r = mu.r
    ser = bessel_j_series(mu, degree + r) if kind == "j" else dunkl_kernel_series(mu, 1.0, degree + r)
    top = min(ser.valid_order, ser.n_max) - r
    head = LaurentSeries(ser.n_min, ser.coeffs[: top - ser.n_min + 1], top)
    return np.array([evaluate(head, x) for x in xs])


@pytest.mark.parametrize("kind, alphas, xs", [
    ("j", (0.0, 0.5), np.linspace(0, 10, 2001)),
    ("j", (0.0, 0.5, 0.25), np.linspace(-10, 10, 2001)),
    ("j", (0.0, 0.75, 0.5, 0.25), np.linspace(0, 10, 2001)),
    ("j", (0.0, 0.2, 0.4, 0.6, 0.8), np.linspace(0, 10, 2001)),
    ("E", (0.0, 0.5), np.linspace(-5, 5, 2001)),
    ("E", (0.0, 0.5666666666666667, -0.6666666666666666), np.linspace(0, 5, 2001)),
    ("E", (0.0, 0.75, 0.5, 0.25), np.linspace(0, 3, 2001)),
    ("E", (0.0, 0.2, 0.4, 0.6, 0.8), np.linspace(0, 3, 2001)),
    # alpha_0 != 0: E has a principal part, so the grid avoids 0
    ("E", (0.3, 0.5666666666666667, -0.6666666666666666), np.linspace(0.01, 4, 2001)),
    ("E", (0.25, 0.5), np.linspace(-4, -0.5, 2001)),
])
def test_whole_grid_values_equal_per_point_loop(kind, alphas, xs):
    mu = IndexVector(len(alphas), alphas)
    got = _certified_series_values(mu, kind, 60, xs)
    want = _per_point_values(mu, kind, 60, xs)
    assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)


def test_principal_part_at_zero_still_refused(capsys):
    code, out, err = _run(capsys, "eval", "E", "--r", "3", "--alpha",
                          "0.3,0.5666666666666667,-0.6666666666666666", "--x-grid", "0:2:3")
    assert (code, out) == (2, "")
    assert err == "error: evaluation at 0 with nonzero principal part\n"


# -- refusal reasons ----------------------------------------------------------

def test_underflowed_tail_refuses_without_nan(capsys):
    # at degree 200 the next j coefficient underflows to 0 while 40^204
    # overflows; the tail estimate must stay a number
    code, out, err = _run(capsys, "eval", "j", "--r", "4", "--alpha", "0,0.75,0.5,0.25",
                          "--x-grid", "40", "--degree", "200")
    assert (code, out) == (2, "")
    assert "x=40" in err and "--degree 200" in err and "nan" not in err.lower()


def test_refusal_says_when_a_value_is_not_finite():
    from rdunkl._errors import SeriesOverflowError
    from rdunkl.cli import _refuse_uncertified

    grid = np.array([1.0, 2.0])
    with pytest.raises(SeriesOverflowError, match=r"x=2: the value is not finite$"):
        _refuse_uncertified("x", grid, [1.0, np.nan], [0.0, 0.0], 1e-12, "tail estimate")
    with pytest.raises(SeriesOverflowError, match=r"x=1: tail estimate is not finite$"):
        _refuse_uncertified("x", grid, [1.0, 1.0], [np.nan, 0.0], 1e-12, "tail estimate")


# -- the number formatter -------------------------------------------------------

def _fmt_dragon4(v: float) -> str:
    """Oracle: the formatter before its "#.15g" fast path, Dragon4 for every
    non-integer value."""
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


def _fmt_inputs():
    rng = np.random.default_rng(20261018)
    n = 120_000
    sample = (rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-20, 17, n)
              * rng.choice([-1.0, 1.0], n))
    near_powers = [float(np.nextafter(10.0 ** k, side)) for k in range(-6, 16)
                   for side in (0.0, np.inf)]
    edges = [1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
             999999999999999.4, 999999999999999.6, 5e-324, -0.0,
             12345678901234.25, 1234567890123.125, 0.5]
    values = sample.tolist() + near_powers + edges
    extra = _dyadic_ties() + _boundary_runs()
    return values + extra + [-v for v in near_powers + edges + extra]


def _dyadic_ties():
    """Exact halfway cases of the 15-digit rounding: m 2^-k below 1e-4 whose
    exact decimal expansion has 16 significant digits, and integers past
    1e15 that end in 5 (16 digits) or 50 (17 digits)."""
    small = [m / 2 ** k for k in range(14, 40) for m in range(1, 1 << 12, 2)]
    ties = [v for v in small if v < 1e-4 and len(Decimal(v).as_tuple().digits) == 16]
    rng = np.random.default_rng(20261020)
    ends_5 = rng.integers(10 ** 14, 2 ** 53 // 10, 2000) * 10 + 5
    ends_50 = rng.integers(2 ** 53 // 100 + 1, 2 ** 54 // 100, 2000) * 100 + 50
    return ties + [float(n) for n in ends_5.tolist() + ends_50.tolist()]


def _boundary_runs():
    """The 50 doubles on each side of the edges of the exponent-form branch."""
    out = []
    for edge in (1e-4, 9.999999999999995e-5, 1e15, 999999999999999.5):
        for side in (0.0, np.inf):
            v = edge
            for _ in range(50):
                v = float(np.nextafter(v, side))
                out.append(v)
    return out


def test_fmt_matches_dragon4_byte_for_byte():
    values = _fmt_inputs()
    assert len(values) >= 100_000
    bad = [v for v in values if _fmt(v) != _fmt_dragon4(v)]
    assert not bad, [(v, _fmt(v), _fmt_dragon4(v)) for v in bad[:5]]


def test_fmt_digit_count_matches_the_character_loop():
    # the oracle counts significant digits one character at a time; doubles
    # with binary exponents -320..320, both signs, and the edges of the
    # exponent-form branch
    rng = np.random.default_rng(20261019)
    n = 100_000
    sample = (np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-320, 321, n))
              * rng.choice([-1.0, 1.0], n))
    edges = [0.0, -0.0, 1e15, -1e15, 1e15 + 0.5, 9.99999999999995e-5, 1e-4, 5e-324]
    bad = [v for v in sample.tolist() + edges if _fmt(v) != _fmt_dragon4(v)]
    assert not bad, [(v, _fmt(v), _fmt_dragon4(v)) for v in bad[:5]]


def test_fmt_exponent_form_falls_back_to_positional():
    assert _fmt(999999999999999.6) == "1000000000000000."
    assert _fmt(1.5e-5) == "0.0000150000000000000"
    assert _fmt(-0.0) == "0"


def test_write_table_equals_the_per_value_fmt_join(capsys):
    # the writer formats most values with one "#.15g" and the rest through
    # _fmt; the table must equal the per-value _fmt join, also at the edges
    # of its plain range (2e-4, 5e14), the exponent-form edges (1e-4, 1e15),
    # signed zeros, integers and the smallest magnitudes
    edges = []
    for v in (1e-4, 2e-4, 5e14, 1e15, 1.5e-300, 5e-324):
        edges += [v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, np.inf))]
    edges += [0.0, -0.0, 1.0, 3.0, 4096.0, 2.0 ** 52, 0.5, 1e14 + 0.5]
    rng = np.random.default_rng(20261021)
    sample = (rng.uniform(1.0, 10.0, 5000) * 10.0 ** rng.integers(-8, 17, 5000)).tolist()
    values = np.array(edges + [-v for v in edges] + sample
                      + np.linspace(-3.0, 4.0, 2001).tolist())
    re, im = values[::-1].copy(), np.round(values, 2)
    _write_table(values, re + 1j * im)
    want = "x,re,im\n" + "".join(f"{_fmt(x)},{_fmt(a)},{_fmt(b)}\n" for x, a, b in
                                 zip(values.tolist(), re.tolist(), im.tolist()))
    assert capsys.readouterr().out == want


# -- golden stdout digests --------------------------------------------------------

GOLDEN = [
    (("eval", "j", "--r", "2", "--alpha", "0,0.5", "--x-grid", "0:10:2001"),
     "8c5b22e81bce8c86cb61e0bba5a192b7f9a8d6ae3930266558809ca998c832c2"),
    (("eval", "j", "--r", "5", "--alpha", "0,0.2,0.4,0.6,0.8", "--x-grid", "0:10:2001"),
     "8d9b5558c75b95b6f9676586ac89575c70ec365f793aba1f7c5720ca8e9b9e59"),
    (("eval", "E", "--r", "3", "--alpha", EX9, "--x-grid", "0:5:2001"),
     "91394bff3d74f5f748c09a1e361a646ce2adce01cb5c6db88525fbb807b838f1"),
    (("eval", "cosr", "--r", "4", "--x-grid", "0:10:2001"),
     "ce7d70582d8dbb7fb5055d2479d82bf4aae11d5118cf5f32660e04077f8651c8"),
    (("transform", "--r", "2", "--mu", "0,0.5", "--a", "2", "--input", "poly:0,1",
      "--lambda-grid=-3:3:41"),
     "5106084fd6b28850256da2a387e0228b2c4e96f3bbe24d6c6f77ac6553b12c8f"),
    (("transform", "--r", "4", "--mu", "0,0.5,0.5,0.5", "--a", "2", "--input", "gaussian",
      "--lambda-grid=-2.8:2.8:41"),
     "23ff7219cfe098c473c5526e4f2c9929f5c84eb7ad6b091350ac253de32c2df3"),
    (("transform", "--r", "3", "--mu", EX9, "--a", "2.7", "--input", "gaussian",
      "--lambda-grid=-3:3:41"),
     "4eaa9d621982b5ec479260630a32eb0c2227e1025c6026aded5ba1b7b18c811e"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:4]) for a, _ in GOLDEN])
def test_table_stdout_digest(capsys, argv, digest):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("x,re,im\n") and out.endswith("\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: `verify hilbert`, `verify rl` and `verify transform` at seed 0: the exact
#: pairing, the ray sums, the derivative-form stencil and the moment series
#: print these reports byte for byte
VERIFY_GOLDEN = [
    ("hilbert", "2", "34876958eeba40c8485dfa3f666e4ae8c79358a3fd127fd8aa106da5ccc97af0"),
    ("hilbert", "3", "e6929bc0421e08351ad7f7ff694ea58bf84e1f3abbacb7113e487648cdeb9f34"),
    ("hilbert", "4", "290ee40b6615c78e2e9ada61661904912993bb8bbf809ad52880558153c262f8"),
    ("hilbert", "5", "b7c98824f642b36ef8aafbf2bdc6160088ea9aef6d71732edafe3c416d37e4d3"),
    ("rl", "2", "d8ae4d3517cbe13e8826eb2ef118c05bca5812c8d6bbe7419593f8b04ce6d4a0"),
    ("rl", "3", "a22d07c54a87b2616014ae4242014e45d2f1bdc145f4b5927a2fd4df7d160979"),
    ("rl", "4", "49aee7e2a6a9231a63660bc41ccfb890c31f5fac6dfd50f11e5fb35207aa65ac"),
    ("rl", "5", "f01a4ad9edd32fda746bf4b721a926f92c150f0521a9b709ee20a11d19ccd901"),
    ("transform", "2", "e99c5a354953ce3726b383a55ba96a510b3cdfa4de0ced9d66a9ad177ad48ddd"),
    ("transform", "3", "0c5e089c1b5b7708fbedad3f243f952c4c841f785d42fbff2d5948718530b9f6"),
    ("eigen", "2", "5447662a5f5c9d55cf9ea82d2738705267d3581a2520c4daa782ada2f163ef55"),
    ("eigen", "3", "c9296fe9c64d333fa347018c44f62c3a7ae874bd16d240a6262be710f1169817"),
    ("eigen", "4", "97432cb392faa21efb26ce97066240b42dfabcb350337cc46cc41ca530ac9a95"),
    ("eigen", "5", "6ef73a431445605f677b4f80e4cddb90029417e1a38513252c4dc4ea39c20ad1"),
    ("power", "2", "980a7137033dc4888e5644543286573bfcbf1cd2129db637d709077d71f15f4d"),
    ("power", "3", "718b985efcf60b78a2d915b4820bcb3c96e3655c8d53c517bcbdbbc1ae0065eb"),
    ("power", "4", "bac9b7b5463f640f9ed2187cf6d86684bdc909669f1b1ac9a44f42c26145b5d9"),
    ("power", "5", "33971910f63ab788e8ea27740da1e36a45ae40e95492fc4e6f1c419939e59dda"),
    ("transmutation", "2", "70af9d845e5da72b8973fce7cec3cbfc8736185ed044af99100051d928b3ef13"),
    ("transmutation", "3", "2a128cdc93a5c7ff5aa0aa69b72eaf75c1fcaa4d4080ca5b82281ba674b3d09c"),
    ("transmutation", "4", "5c85a5b96e7890c62c347899103dfa65f334f86d7dab50b2d900f2692203e628"),
    ("transmutation", "5", "e5e1321302e5372a38ce79dcb3575abc9ac6a1729d419caaa4a64781e43f9db1"),
    ("dunkl-opdam", "2", "d0eb30ea1ccefd07be16d2830d8c4cd97e9e6b64cda3b3bd28286dac7fc1d91a"),
    ("dunkl-opdam", "3", "158df2332f29177408eeb2c13d6f88766c064c96d29240f12a238b6e7694fb92"),
    ("dunkl-opdam", "4", "2aa2e7ba29040c962c5970364f3eb54275abc9fe00acb250eb7508fef86d671d"),
    ("dunkl-opdam", "5", "4ab00738bbb2bd987b86ffd66495ade129ffc432e034073f256b5c764ecbade3"),
    # the one-pass identity checks at their edges: no off-grade degree
    # (--degree 0, where the negative control is reported as not applicable),
    # one, the largest degree, and the r = 2 monomial intertwining at N = 200
    ("power", "3 --seed 0 --degree 0",
     "9aaacbf2a14fe0180f2f5e272ba4564ea70eb95e06e59fc6d9c25eb52c33cb66"),
    ("power", "3 --seed 0 --degree 1",
     "718b985efcf60b78a2d915b4820bcb3c96e3655c8d53c517bcbdbbc1ae0065eb"),
    ("power", "5 --seed 1 --degree 200",
     "11602ca4ae5f9ac3efeebbff64741f6d41e1775fe3d989ee91829fbb973b9772"),
    ("transmutation", "2 --seed 1 --degree 200",
     "ee17ba9e2cfb312cc2636b46d4861156d728433e8fa4a4d5668f9165c677788f"),
]


@pytest.mark.parametrize("suite, r, digest", VERIFY_GOLDEN,
                         ids=[f"{s} --r {r}" for s, r, _ in VERIFY_GOLDEN])
def test_verify_stdout_digest(capsys, suite, r, digest):
    # "r" is the --r value, optionally followed by more flags; the seed is 0
    # unless they set it
    flags = r.split()
    if "--seed" not in flags:
        flags += ["--seed", "0"]
    code, out, err = _run(capsys, "verify", suite, "--r", *flags)
    assert err == ""
    assert code == (0 if all(rep["pass"] for rep in json.loads(out)) else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_power_negative_control_without_off_grade_degree_is_not_applicable(capsys, r):
    # --degree 0 checks degree 0 only: no off-grade degree, so the negative
    # control is a measurement that does not set the exit code
    code, out, err = _run(capsys, "verify", "power", "--r", str(r), "--seed", "0",
                          "--degree", "0")
    assert (code, err) == (0, "")
    rep = next(d for d in json.loads(out) if d["check_id"] == "power.fixed_chain_off_grade_zero")
    assert rep["kind"] == "measured" and rep["pass"] and rep["tolerance"] is None
    assert rep["notes"] == ["not applicable: no off-grade degree in 0..0"]
    # at degree 1 the off-grade degree 1 is measured against the floor
    code, out, _ = _run(capsys, "verify", "power", "--r", str(r), "--seed", "0",
                        "--degree", "1")
    rep = next(d for d in json.loads(out) if d["check_id"] == "power.fixed_chain_off_grade_zero")
    assert code == 0 and rep["kind"] == "exceeds-floor" and rep["pass"]


# -- the transmutation matrix ----------------------------------------------------------

def test_chain_factors_computed_once_per_degree(monkeypatch):
    calls = []
    real = transmutation.l_coefficients

    def counting(degrees, alpha, r):
        calls.extend((int(n), alpha) for n in degrees)
        return real(degrees, alpha, r)

    monkeypatch.setattr(transmutation, "l_coefficients", counting)
    mu = IndexVector(4, (0.0, 0.75, 0.5, 0.25))
    N = 60
    transmutation.build_V(mu, N)
    assert calls and len(calls) == len(set(calls))
    # the chain is reached only at degrees 0 (mod r) below N + r
    assert len(calls) <= len(range(0, N + mu.r, mu.r)) * mu.r


def test_product_factorization_reads_the_transmutation_chain(monkeypatch):
    # the grade-0 diagonal of V and the left side of the product factorization
    # are the same chain of fractional means, computed in one place
    calls = []
    real = transmutation.l_coefficients

    def counting(degrees, alpha, r):
        calls.extend((int(n), alpha) for n in degrees)
        return real(degrees, alpha, r)

    monkeypatch.setattr(transmutation, "l_coefficients", counting)
    mu = IndexVector(3, (0.0, 0.5666666666666667, -0.6666666666666666))
    assert product_factorization_check(mu, 30).passed
    assert calls


@pytest.mark.parametrize("alphas", [(0.0, 0.5), (0.0, 0.5666666666666667, -0.6666666666666666),
                                    (0.0, 0.75, 0.5, 0.25), (0.3, 0.2, 0.9)])
def test_fractional_mean_chain_is_the_grade0_diagonal_of_V(alphas):
    mu = IndexVector(len(alphas), alphas)
    r, N = mu.r, 40
    V = transmutation.build_V(mu, N)
    weight = MehlerWeight(mu)
    n = np.arange(0, N + 1, r)
    chain = transmutation.fractional_mean_chain(weight, n)
    assert np.array_equal(V.matrix[n - V.row_min, n], V.c_norm * chain)


@pytest.mark.parametrize("kind, alphas", [
    ("j", (0.0, 0.5, 0.25)),
    ("E", (0.0, 0.5666666666666667, -0.6666666666666666)),
    ("E", (0.0, 0.75, 0.5, 0.25)),
])
def test_eval_prints_the_degree_truncation_for_j_and_E(kind, alphas):
    # at x near 2 the terms of degree ~20 still move the last bits, so the
    # value pins which truncation is printed
    mu = IndexVector(len(alphas), alphas)
    xs = np.linspace(0, 2, 201)
    for degree in (20, 24):
        ser = (bessel_j_series(mu, degree + 10) if kind == "j"
               else dunkl_kernel_series(mu, 1.0, degree + 10))
        head = LaurentSeries(ser.n_min, ser.coeffs[: degree - ser.n_min + 1], degree)
        got = _certified_series_values(mu, kind, degree, xs)
        assert np.array_equal(got, evaluate(head, xs))
