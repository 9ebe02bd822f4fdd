import math

import mpmath
import numpy as np
import pytest

import rdunkl as rd
from rdunkl._errors import PoleError, ParameterError
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
