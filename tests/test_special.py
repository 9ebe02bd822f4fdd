import math

import mpmath
import numpy as np
import pytest

import rdunkl as rd
from rdunkl._errors import PoleError, ParameterError, SeriesOverflowError
from rdunkl.special import gamma_ratio


def test_pochhammer_values():
    assert rd.pochhammer(3.7, 0) == 1.0
    assert rd.pochhammer(1.0, 5) == 120.0
    assert abs(rd.pochhammer(0.5, 2) - 0.75) < 1e-15  # (1/2)(3/2)


def test_pochhammer_large_n_uses_loggamma():
    got = rd.pochhammer(0.3, 100)
    want = math.exp(math.lgamma(100.3) - math.lgamma(0.3))
    assert abs(got - want) / want < 1e-12


def test_pochhammer_pole():
    with pytest.raises(PoleError):
        rd.pochhammer(-2.0, 5)


def test_index_vector_invariants():
    mu = rd.IndexVector(3, (0.0, 0.5, -2 / 3))
    assert mu.a == (0.0, 3 * 0.5 + 1, 3 * (-2 / 3) + 2)
    for k, al in enumerate(mu.alphas):
        assert mu.a[k] - k == 3 * al
    with pytest.raises(PoleError):
        rd.IndexVector(2, (0.0, -1.0))


def test_bessel_j_normalization():
    for r, alphas in [(2, (0.3, 0.9)), (3, (0.0, 0.2, 0.7)), (5, (0.1, 0.2, 0.3, 0.4, 0.5))]:
        j = rd.bessel_j_series(rd.IndexVector(r, alphas), 30)
        assert j[0] == 1.0


def test_bessel_j_reduces_to_cosine():
    # r=2, mu=(0,-1/2): n!(1/2)_n 4^n = (2n)! collapses the series to cos
    mu = rd.IndexVector(2, (0.0, -0.5))
    j = rd.bessel_j_series(mu, 40)
    assert abs(rd.evaluate(j, 1.0) - math.cos(1.0)) < 1e-14
    for n in range(0, 15):
        assert abs(rd.pochhammer(1.0, n) * rd.pochhammer(0.5, n) * 4.0 ** n
                   - math.factorial(2 * n)) / math.factorial(2 * n) < 1e-13


def test_bessel_j_r3_degenerate_coefficients():
    # (1)_n (2/3)_n (1/3)_n 27^n = (3n)! for the fully degenerate index
    mu = rd.IndexVector(3, (0.0, -1 / 3, -2 / 3))
    j = rd.bessel_j_series(mu, 60)
    for n in range(0, 21):
        want = (-1.0) ** n / math.factorial(3 * n)
        assert abs(j[3 * n] - want) <= 1e-13 * abs(want)


def test_bessel_j_classical_r2_series():
    # matches the normalized Bessel series coefficient by coefficient
    alpha = 0.7
    mu = rd.IndexVector(2, (0.0, alpha))
    j = rd.bessel_j_series(mu, 40)
    for n in range(0, 21):
        want = (-1.0) ** n / (math.factorial(n) * rd.pochhammer(alpha + 1.0, n) * 4.0 ** n)
        assert abs(j[2 * n] - want) <= 1e-13 * abs(want)


def test_bessel_j_value_adaptive_matches_series():
    mu = rd.IndexVector(3, (0.2, 0.5, 0.9))
    j = rd.bessel_j_series(mu, 90)
    for x in (0.3, 1.0, 2.5, 4.0 + 1.0j):
        assert abs(rd.bessel_j_value(mu, x) - rd.evaluate(j, x)) < 1e-12


def _recurrence_bessel_j_value(mu, x):
    """Oracle: j_mu by its own term recurrence, as evaluated before the
    shared series evaluator: terms are added until the next one drops below
    1e-16 of the sum and the degree has passed |x|, and the value is refused
    when the largest term exceeds it by more than 1e12."""
    x = np.asarray(x, dtype=complex)
    xr, rr = x ** mu.r, float(mu.r) ** mu.r
    total, term, maxabs, n = np.ones_like(x), np.ones_like(x), np.ones(np.shape(x)), 0
    while True:
        denom = rr
        for al in mu.alphas:
            denom *= al + 1.0 + n
        term = -term * xr / denom
        total = total + term
        n += 1
        maxabs = np.maximum(maxabs, np.abs(term))
        if (np.max(np.abs(term)) < 1e-16 * max(np.max(np.abs(total)), 1e-300)
                and n * mu.r > np.max(np.abs(x))):
            break
        if n > 4000:
            raise SeriesOverflowError("did not settle")
    if np.max(maxabs / np.maximum(np.abs(total), 1e-300)) > 1e12:
        raise SeriesOverflowError("cancellation")
    return complex(total) if total.ndim == 0 else total


def _bessel_indices(r):
    rng = np.random.default_rng(100 + r)
    return [rd.IndexVector(r, al) for al in (
        tuple(-k / r for k in range(r)), (0.0,) + tuple(rng.uniform(-0.4, 1.5, r - 1)),
        tuple(rng.uniform(-0.4, 1.5, r)), (0.0,) + tuple(rng.uniform(0.0, 0.9, r - 1)))]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_bessel_j_value_refuses_where_the_recurrence_did(r):
    # at r = 2, 3 the grid reaches the refused range; at r = 4, 5 it does not
    seen = set()
    for mu in _bessel_indices(r):
        for ax in (5, 10, 15, 20, 30, 40, 60, 80):
            for x in (ax, -ax, ax * np.exp(1j * np.pi / (2 * r)), 1j * ax):
                outcomes = []
                for fn in (_recurrence_bessel_j_value, rd.bessel_j_value):
                    try:
                        fn(mu, x)
                        outcomes.append("value")
                    except SeriesOverflowError:
                        outcomes.append("refused")
                assert outcomes[0] == outcomes[1], (mu.alphas, x, outcomes)
                seen.add(outcomes[0])
    assert seen == ({"value", "refused"} if r <= 3 else {"value"})


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_bessel_j_value_matches_mpmath(r):
    # j_mu = 1F_r(1; alpha_0 + 1, ..., alpha_{r-1} + 1; -(x/r)^r)
    for mu in _bessel_indices(r):
        for x in (0.5, 2.0, 5.0, -7.5, 10.0, -10.0, 6 + 8j, 10j):
            got = rd.bessel_j_value(mu, x)
            with mpmath.workdps(40):
                want = complex(mpmath.hyper([1], [mpmath.mpf(al) + 1 for al in mu.alphas],
                                            -(mpmath.mpmathify(complex(x)) / r) ** r))
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (mu.alphas, x)


def test_bessel_j_value_refuses_non_finite_and_huge_arguments():
    mu = rd.IndexVector(3, (0.0, 0.5, 0.25))
    for x in (np.inf, np.nan, 1e6):
        with pytest.raises(SeriesOverflowError):
            rd.bessel_j_value(mu, x)


def test_cos_r_series_values():
    c2 = rd.CyclicStructure(2)
    s2 = rd.cos_r_series(c2, 40)
    assert s2[0] == 1.0
    assert abs(rd.evaluate(s2, 0.7) - math.cos(0.7)) < 1e-14
    # frozen from the cosine oracle
    assert abs(rd.evaluate(s2, 0.7) - 0.7648421872844885) < 1e-14


def test_cos_r_two_formulas_agree():
    # averaging formula against the series form
    c3 = rd.CyclicStructure(3)
    s3 = rd.cos_r_series(c3, 60)
    assert abs(rd.evaluate(s3, 0.7) - rd.cos_r_value(c3, 0.7)) < 1e-13


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_cos_r_real_path_matches_complex_path_and_mpmath(r):
    # real z sums the conjugate pairs in real arithmetic; complex z keeps
    # the r-term average, so the two paths are independent evaluations
    c = rd.CyclicStructure(r)
    z = np.linspace(-4.0, 4.0, 161)
    got = rd.cos_r_value(c, z)
    assert got.dtype == np.float64
    cplx = rd.cos_r_value(c, z.astype(complex))
    assert np.max(np.abs(got - cplx) / (1.0 + np.abs(cplx))) < 1e-14
    with mpmath.workdps(40):
        rots = [mpmath.exp(1j * mpmath.pi * (2 * k + 1) / r) for k in range(r)]
        want = np.array([float(mpmath.re(sum(mpmath.exp(w * mpmath.mpf(float(x))) for w in rots) / r))
                         for x in z])
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-14
    scalar = rd.cos_r_value(c, 0.7)
    assert isinstance(scalar, float) and scalar == rd.cos_r_value(c, np.array([0.7]))[0]
    assert rd.cos_r_value(c, 0.0) == 1.0


def test_cos_r_equals_degenerate_bessel():
    for r in (2, 3, 4):
        c = rd.CyclicStructure(r)
        mu = rd.IndexVector(r, tuple(-k / r for k in range(r)))
        a = rd.cos_r_series(c, 45)
        b = rd.bessel_j_series(mu, 45)
        assert rd.series_residual(a, b) < 1e-15


def test_index_shift_slots():
    mu = rd.IndexVector(2, (0.0, 0.4))
    up = rd.index_shift(mu, "plus")
    assert up.alphas == (0.0, 1.4)
    mu3 = rd.IndexVector(3, (0.0, 0.8 - 1 / 3, -2 / 3))
    up3 = rd.index_shift(mu3, "plus")
    assert np.allclose(up3.alphas, (0.0, 0.8 + 2 / 3, 1 / 3))
    down = rd.index_shift(rd.IndexVector(2, (0.5, 0.4)), "minus")
    assert down.alphas == (-0.5, 0.4)
    # minus then plus moves different slots, so it is not the identity
    back = rd.index_shift(rd.index_shift(rd.IndexVector(2, (0.5, 0.4)), "minus"), "plus")
    assert back.alphas != (0.5, 0.4)


def test_index_shift_pole():
    with pytest.raises(PoleError):
        rd.index_shift(rd.IndexVector(2, (0.0, 0.4)), "minus")  # alpha_0 -> -1


def test_index_shift_bad_direction():
    with pytest.raises(ParameterError):
        rd.index_shift(rd.IndexVector(2, (0.0, 0.4)), "sideways")


def test_gamma_ratio_matches_math_gamma():
    got = gamma_ratio([2.3, 0.7], [1.9])
    want = math.gamma(2.3) * math.gamma(0.7) / math.gamma(1.9)
    assert abs(got - want) / abs(want) < 1e-13


@pytest.mark.parametrize("num, den", [
    ([-0.5], []), ([-2.3], []), ([-0.5, 2.3], [-2.3]), ([1.7], [-0.5, -3.7]),
    ([-4.5, -1.2], [-6.1, 0.4]),
])
def test_gamma_ratio_sign_at_negative_arguments(num, den):
    with mpmath.workdps(30):
        want = mpmath.fprod(mpmath.gamma(mpmath.mpf(v)) for v in num) / mpmath.fprod(
            mpmath.gamma(mpmath.mpf(v)) for v in den)
    got = gamma_ratio(num, den)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("beta, n", [
    (-0.5, 65), (-2.3, 70), (-2.3, 71), (-70.5, 65), (-70.5, 80), (-100.0, 65), (-101.0, 90),
])
def test_pochhammer_beyond_64_at_negative_beta(beta, n):
    # the log-gamma path with the sign of Gamma at both ends; a negative
    # integer beta whose factors all stay nonzero goes through the reflection
    with mpmath.workdps(30):
        want = mpmath.rf(mpmath.mpf(beta), n)
    got = rd.pochhammer(beta, n)
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert abs(got - want) <= 1e-12 * abs(want)


def _bessel_recurrence(mu, N):
    """Oracle: j_mu's coefficients by the scalar recurrence, one degree and
    one alpha at a time, term_(n+1) = -term_n / (prod_k (alpha_k+1+n) r^r)."""
    r = mu.r
    coeffs = np.zeros(N + 1, dtype=complex)
    term, n = 1.0, 0
    while n * r <= N:
        coeffs[n * r] = term
        denom = 1.0
        for al in mu.alphas:
            fac = al + 1.0 + n
            if abs(fac) < 1e-12:
                raise PoleError(f"(alpha+1)_n factor vanishes at alpha={al}, n={n}")
            denom *= fac
        term = -term / (denom * float(r) ** r)
        n += 1
    return coeffs


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_bessel_j_series_equals_the_scalar_recurrence_bit_for_bit(r):
    # alpha_0 = 0, alpha_0 != 0, and alphas just above their bounds -k/r
    rng = np.random.default_rng(r)
    mus = [rd.IndexVector(r, (0.0,) + tuple(rng.uniform(-k / r + 0.05, 3.0)
                                            for k in range(1, r))),
           rd.IndexVector(r, tuple(rng.uniform(-k / r + 0.05, 3.0) for k in range(r))),
           rd.IndexVector(r, tuple(-k / r + 1e-9 for k in range(r))),
           rd.IndexVector(r, tuple(-k / r for k in range(r)))]
    for mu in mus:
        want = _bessel_recurrence(mu, 300)
        for N in range(301):
            ser = rd.bessel_j_series(mu, N)
            assert ser.coeffs.tobytes() == want[: N + 1].tobytes(), (mu.alphas, N)
            assert (ser.n_min, ser.valid_order, ser.grade, ser.r) == (0, N, 0, r)


@pytest.mark.parametrize("alphas, N", [((0.5, -3.0, -2.0), 8), ((0.5, -3.0, -2.0), 3),
                                       ((-1.0, 0.5), 0), ((0.2, -4.0), 9)])
def test_bessel_j_series_pole_message_names_the_first_vanishing_factor(alphas, N):
    # an index that slipped past IndexVector's validation: the first zero
    # factor in the recurrence's order (degree first, then alpha) is named
    mu = object.__new__(rd.IndexVector)
    object.__setattr__(mu, "r", len(alphas))
    object.__setattr__(mu, "alphas", alphas)
    with pytest.raises(PoleError) as want:
        _bessel_recurrence(mu, N)
    with pytest.raises(PoleError) as got:
        rd.bessel_j_series(mu, N)
    assert str(got.value) == str(want.value)
