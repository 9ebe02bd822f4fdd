import inspect
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import rdunkl as rd
from rdunkl._errors import ParameterError, SeriesOverflowError, TailWarning
from rdunkl.hilbert import ray_poly
from rdunkl.quadrature import gauss_legendre_rule
from rdunkl.series import CyclicStructure, kernel_series_degree
from rdunkl.transforms import (
    _bary_matrix,
    _bary_weights,
    dunkl_transform_F,
    dunkl_transform_inverse,
    eigen_property_check,
    f_r_transform,
    factorization_residual,
    grade_transport_check,
    _kept_degree,
    _kernel_Tmax,
    _moment_coefficients,
    laplace_theta,
    laplace_theta_inverse,
    moment_transform,
)
from rdunkl.transmutation import build_V_star


def test_laplace_closed_form_r4():
    c4 = CyclicStructure(4)
    lam = 0.5
    got = laplace_theta(lambda t: np.exp(-t), lam, Tmax=60.0, n_nodes=600, c=c4)
    want = 1.0 / (1.0 - c4.theta * lam)
    assert abs(got - want) < 1e-8


def test_laplace_gaussian_r2_against_direct_quadrature():
    # theta = i: integral_0^inf e^{i lam t} e^{-t^2} dt, oscillatory oracle
    c2 = CyclicStructure(2)
    lam = 1.3
    got = laplace_theta(lambda t: np.exp(-t ** 2), lam, Tmax=9.0, n_nodes=400, c=c2)
    re, _ = quad(lambda t: np.cos(lam * t) * np.exp(-t ** 2), 0, 12, epsabs=1e-13)
    im, _ = quad(lambda t: np.sin(lam * t) * np.exp(-t ** 2), 0, 12, epsabs=1e-13)
    assert abs(got - (re + 1j * im)) < 1e-11


def test_laplace_tail_warning():
    c2 = CyclicStructure(2)
    with pytest.warns(TailWarning):
        laplace_theta(lambda t: np.exp(-0.01 * t), 0.0, Tmax=10.0, n_nodes=100, c=c2)


def test_contour_round_trip_r4():
    c4 = CyclicStructure(4)
    G = lambda s: 1.0 / (1.0 - c4.theta * s)
    got = laplace_theta_inverse(G, 1.0, cshift=1.0, T=200.0, n_nodes=4000, c=c4)
    assert abs(got - np.exp(-1.0)) < 1e-4
    assert abs(got.imag) < 1e-4  # real input recovers a real value


def test_contour_reduces_to_bromwich_r2():
    # theta = i turns the rotated line into the classical inversion contour
    c2 = CyclicStructure(2)
    G = lambda s: 1.0 / (1.0 - 1j * s)  # transform of e^{-t}
    got = laplace_theta_inverse(G, 1.0, cshift=1.0, T=200.0, n_nodes=4000, c=c2)
    assert abs(got - np.exp(-1.0)) < 1e-4


def test_gaussian_fourier_pair():
    c2 = CyclicStructure(2)
    g = ray_poly(c2, [1.0], decay_scale=0.5)
    for lam in (-3.0, -1.2, 0.0, 0.7, 2.9):
        got = f_r_transform(g, lam, a=0.0, n_nodes=300)
        want = np.sqrt(2 * np.pi) * np.exp(-lam ** 2 / 2.0)
        assert abs(got - want) < 1e-6


def test_odd_input_vanishes_at_zero():
    c2 = CyclicStructure(2)
    godd = ray_poly(c2, [0.0, 1.0])
    assert abs(f_r_transform(godd, 0.0)) < 1e-14


def test_f_r_linearity():
    c3 = CyclicStructure(3)
    g = ray_poly(c3, [1.0, 0.5, 0.25])
    v1 = f_r_transform(g, 0.9)
    g2 = ray_poly(c3, (2.0 - 1.0j) * g.poly.coeffs, g.poly.n_min)
    v2 = f_r_transform(g2, 0.9)
    assert abs((2.0 - 1.0j) * v1 - v2) < 1e-12


def test_dunkl_transform_at_zero_is_weighted_mass():
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c2 = CyclicStructure(2)
    g = ray_poly(c2, [0.0, 0.0, 1.0])
    got = dunkl_transform_F(mu, a, g, 0.0)
    # kernel at 0 is 1, so this is the plain weighted ray integral of g
    rule = gauss_legendre_rule(400, 0.0, 8.0)
    t = rule.nodes
    want = np.sum(rule.weights * (g.on_ray(0, t) + g.on_ray(1, t)) * t ** a)
    assert abs(got - want) < 1e-9


def test_dunkl_transform_reduces_to_hankel_type_r2():
    # for even input the kernel's odd part integrates away, leaving twice
    # the one-sided pairing against j_alpha
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c2 = CyclicStructure(2)
    g = ray_poly(c2, [1.0, 0.0, 0.5])
    lam = 1.1
    got = dunkl_transform_F(mu, a, g, lam)

    def integrand(t):
        jval = rd.bessel_j_value(mu, lam * t)
        return float((1 + 0.5 * t ** 2) * np.exp(-t ** 2) * jval.real) * t ** a

    want, _ = quad(integrand, 0, 9, epsabs=1e-12, epsrel=1e-12)
    assert abs(got - 2.0 * want) < 1e-8


def test_dunkl_transform_r3_against_independent_quadrature():
    # full cross-validation of the ray pairing at r=3: adaptive scipy
    # quadrature of the explicit integrand, kernel values from the series
    from rdunkl.operators import dunkl_kernel_values

    v = 0.9
    a = 3 * v
    mu = rd.IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
    c3 = CyclicStructure(3)
    g = ray_poly(c3, [1.0, 0.5])
    lam = 0.8
    got = dunkl_transform_F(mu, a, g, lam)

    kernel = {}

    def integrand(t, part):
        total = 0.0 + 0.0j
        for m in range(3):
            om = c3.omega_pow(m)
            key = (m, t)
            if key not in kernel:
                kernel[key] = complex(dunkl_kernel_values(mu, np.array([lam * om * t]))[0])
            total += complex(g.on_ray(m, np.array([t]))[0]) * kernel[key]
        total *= t ** a
        return total.real if part == "re" else total.imag

    re, _ = quad(lambda t: integrand(t, "re"), 0, 8, epsabs=1e-11, epsrel=1e-11, limit=200)
    im, _ = quad(lambda t: integrand(t, "im"), 0, 8, epsabs=1e-11, epsrel=1e-11, limit=200)
    assert abs(got - (re + 1j * im)) < 1e-7


def test_dunkl_transform_requires_regular_kernel():
    with pytest.raises(ParameterError):
        dunkl_transform_F(rd.IndexVector(2, (0.3, 0.5)), 1.5,
                          ray_poly(CyclicStructure(2), [1.0]), 1.0)


def test_series_overflow_guard():
    mu = rd.IndexVector(2, (0.0, 0.5))
    g = ray_poly(CyclicStructure(2), [1.0])
    with pytest.raises(SeriesOverflowError):
        dunkl_transform_F(mu, 2.0, g, 40.0)


def test_factorization_r2():
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    g = ray_poly(CyclicStructure(2), [0.0, 0.0, 1.0])
    for lam in (0.4, 0.8, 1.6):
        rep = factorization_residual(mu, a, g, lam)
        assert rep.kind == "residual-below" and rep.passed and rep.residual < 1e-6


def test_factorization_r3_measured_gap():
    # the kernel map fails off lam = 1 for this family, so the factorization
    # inherits a genuine gap; the report measures it
    v = 0.9
    mu = rd.IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
    g = ray_poly(CyclicStructure(3), [1.0, 0.5])
    rep = factorization_residual(mu, 3 * v, g, 0.8)
    assert rep.kind == "measured"
    assert rep.residual > 1e-3


def test_eigen_property_r2():
    alpha = 0.5
    mu = rd.IndexVector(2, (0.0, alpha))
    g = ray_poly(CyclicStructure(2), [0.0, 0.0, 1.0])
    rep = eigen_property_check(mu, 2.0, g, 0.8)
    assert rep.kind == "residual-below" and rep.passed and rep.residual < 1e-6


def test_eigen_property_zero_frequency():
    # at lam = 0 the identity reduces to the vanishing boundary pairing
    alpha = 0.5
    mu = rd.IndexVector(2, (0.0, alpha))
    g = ray_poly(CyclicStructure(2), [0.0, 0.0, 1.0])
    rep = eigen_property_check(mu, 2.0, g, 0.0)
    assert rep.residual < 1e-6


def test_eigen_property_r3_is_conditional():
    v = 0.9
    mu = rd.IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
    g = ray_poly(CyclicStructure(3), [1.0, 0.4])
    rep = eigen_property_check(mu, 3 * v, g, 0.8)
    assert rep.kind == "measured"  # conditional on an adjoint identity that fails here


@pytest.mark.parametrize("k,coeffs", [(1, [0.0, 1.0]), (0, [1.0, 0.0, 0.6])])
def test_grade_transport(k, coeffs):
    alpha = 0.5
    mu = rd.IndexVector(2, (0.0, alpha))
    g = ray_poly(CyclicStructure(2), coeffs)
    rep = grade_transport_check(g, k, mu, 2 * alpha + 1.0)
    assert rep.passed and rep.residual < 1e-6


@pytest.mark.parametrize("r,k", [(2, 1), (3, 1), (3, 2)])
def test_base_transform_grade_transport(r, k):
    # F_r sends grade k to grade r-k: the lambda-circle fit of F_r g keeps
    # only degrees d = k (mod r)
    c = CyclicStructure(r)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0  # x^k lies in grade (-k) mod r ... adjust below
    # pick the lowest monomial degree in grade k: d with d = -k (mod r)
    d = (-k) % r
    coeffs = np.zeros(d + 1)
    coeffs[d] = 1.0
    g = ray_poly(c, coeffs)
    n_lam = 12
    lams = 1.3 * np.exp(2j * np.pi * np.arange(n_lam) / n_lam)
    samples = np.array([f_r_transform(g, lam, a=0.0, n_nodes=200) for lam in lams])
    fit = np.fft.fft(samples) / n_lam
    energy = np.abs(fit)
    total = float(np.max(energy)) or 1.0
    # output grade r-k means surviving degrees are d' = -(r-k) = k (mod r)
    bad = max(energy[dd] for dd in range(n_lam) if dd % r != k % r)
    assert bad / total < 1e-8


def _forward_oracle(mu, a, g, c2):
    """Transform values on the contour via the factorization with exact
    exponential kernels (reliable at large |lambda|)."""
    vstar = build_V_star(mu, a, n_nodes=48, conjugate=False)
    vg = vstar(g)
    rule = gauss_legendre_rule(300, 0.0, 7.0)
    tq, wq = rule.nodes, rule.weights
    u_p = tq ** a * vg.on_ray(0, tq)
    u_m = tq ** a * vg.on_ray(1, tq)

    def Ghat(s):
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        return ((np.exp(1j * np.outer(s, tq)) * (wq * u_p)).sum(axis=1)
                + (np.exp(-1j * np.outer(s, tq)) * (wq * u_m)).sum(axis=1))

    return Ghat


def test_inverse_round_trip_r2():
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c2 = CyclicStructure(2)
    g = ray_poly(c2, [0.0, 1.0])  # t e^{-t^2}, grade 1
    Ghat = _forward_oracle(mu, a, g, c2)
    got = dunkl_transform_inverse(mu, a, Ghat, 1.0, grade_k=1, T=40.0)
    assert abs(got - np.exp(-1.0)) < 1e-3


def test_inverse_linearity():
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c2 = CyclicStructure(2)
    g = ray_poly(c2, [0.0, 1.0])
    Ghat = _forward_oracle(mu, a, g, c2)
    scaled = lambda s: 3.0 * Ghat(s)
    v1 = dunkl_transform_inverse(mu, a, Ghat, 0.8, grade_k=1, T=40.0)
    v2 = dunkl_transform_inverse(mu, a, scaled, 0.8, grade_k=1, T=40.0)
    assert abs(v2 - 3.0 * v1) < 1e-9


def test_inverse_wrong_grade_is_a_negative_control():
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c2 = CyclicStructure(2)
    g = ray_poly(c2, [0.0, 1.0])
    Ghat = _forward_oracle(mu, a, g, c2)
    bad = dunkl_transform_inverse(mu, a, Ghat, 1.0, grade_k=0, T=40.0)
    assert abs(bad - np.exp(-1.0)) > 1e-2


@pytest.mark.parametrize("x", [0.3, 0.8, 1.0, 1.7, 2.5])
def test_inverse_recovers_the_preimage_to_roundoff(x):
    # the aliasing-sized contour keeps the whole inversion near roundoff
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c2 = CyclicStructure(2)
    Ghat = _forward_oracle(mu, a, ray_poly(c2, [0.0, 1.0]), c2)
    got = dunkl_transform_inverse(mu, a, Ghat, x, grade_k=1, T=40.0)
    assert abs(got - x * np.exp(-x * x)) <= 1e-11


def test_inverse_contour_has_no_node_count_knob():
    # the trapezoid step follows from T and grid_max (the aliasing condition)
    assert "n_contour" not in inspect.signature(dunkl_transform_inverse).parameters


def test_laplace_inverse_on_an_array_equals_the_scalar_calls():
    # one contour pass for a whole grid, bit for bit the per-point results
    xs = np.concatenate([_cheb_grid(), [0.0, 1.0, 2.5]])
    for r, T, n in ((2, 40.0, 489), (4, 200.0, 4000)):
        c = CyclicStructure(r)
        G = lambda s, c=c: 1.0 / (1.0 - c.theta * s) + 0.3j / (2.0 - s)
        got = laplace_theta_inverse(G, xs, 1.0, T, n, c=c)
        want = np.array([laplace_theta_inverse(G, float(x), 1.0, T, n, c=c) for x in xs])
        assert got.shape == xs.shape and np.array_equal(got, want)


@pytest.mark.parametrize("r", [2, 3])
def test_suite_transform_runs_without_the_quadrature_transform(r, monkeypatch):
    # the checks read the exact moment series; the ray quadrature is only
    # the tests' oracle
    import rdunkl.transforms as tf
    from rdunkl.verify import suite_transform

    def refuse(*args, **kwargs):
        raise AssertionError("dunkl_transform_F called in production")

    monkeypatch.setattr(tf, "dunkl_transform_F", refuse)
    reports = suite_transform(r, 0, 48, 60)
    ids = {rep.check_id for rep in reports}
    assert {"transform.eigen_property", "transform.factorization"} <= ids
    assert all(rep.passed for rep in reports)


def test_suite_transform_r2_memory_peak():
    from rdunkl.verify import suite_transform

    suite_transform(2, 0, 48, 60)  # warm the per-process rule caches
    tracemalloc.start()
    try:
        suite_transform(2, 0, 48, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def _bary_matrix_loop(grid, pts):
    # the per-point loop the one-pass _bary_matrix replaced
    w = _bary_weights(grid)
    B = np.zeros((len(pts), len(grid)))
    for i, x in enumerate(pts):
        d = x - grid
        hit = np.where(np.abs(d) < 1e-14)[0]
        if hit.size:
            B[i, hit[0]] = 1.0
            continue
        terms = w / d
        B[i, :] = terms / np.sum(terms)
    return B


def _cheb_grid(n=72, top=9.5746):
    j = np.arange(n)
    return np.sort(np.clip(top * 0.5 * (1.0 - np.cos(np.pi * (j + 0.5) / n)), 1e-3, None))


def test_bary_matrix_matches_the_point_loop_bit_for_bit():
    grid = _cheb_grid()
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.uniform(0.0, grid[-1], 5000), grid[::9],
                          grid[3:4] + 5e-15, [grid[0]]])
    rng.shuffle(pts)
    B = _bary_matrix(grid, pts)
    assert np.array_equal(B, _bary_matrix_loop(grid, pts))
    on_node = np.isin(pts, grid)
    assert np.all(B[on_node].max(axis=1) == 1.0) and np.all(B[on_node].sum(axis=1) == 1.0)


def test_ray_volterra_solve_matches_the_point_loop(monkeypatch):
    # the collocation basis evaluates _bary_matrix on quadrature points, some
    # past grid[-1] (zero rows there); the solve must not move a bit
    import rdunkl.transforms as tf

    grid = _cheb_grid()
    target = np.exp(-grid ** 2) * (1.0 + 0.5j * grid)
    got = tf._solve_ray_volterra(target, grid, 1.0, 2.0, 2, grid[-1], 48)
    monkeypatch.setattr(tf, "_bary_matrix", _bary_matrix_loop)
    want = tf._solve_ray_volterra(target, grid, 1.0, 2.0, 2, grid[-1], 48)
    assert np.array_equal(got, want)


def test_inverse_r3_rejected():
    with pytest.raises(ParameterError):
        dunkl_transform_inverse(rd.IndexVector(3, (0.0, 0.5, 0.9)), 2.7,
                                lambda s: s, 1.0, grade_k=0)


MOMENT_INDICES = {
    2: (0.0, 0.5),
    3: (0.0, 0.9 - 1 / 3, -2 / 3),
    4: (0.0, 0.5, 0.5, 0.5),
    5: (0.0, 0.2, 0.4, 0.6, 0.8),
}


def _moment_input(r, kind):
    c = CyclicStructure(r)
    if kind == "gaussian":
        return ray_poly(c, [1.0], decay_scale=0.5)
    g = ray_poly(c, [0.5, 1.0, -0.25j])
    return replace(g, twist=2) if kind == "twisted" else g


def _mp_moment_series(mu, a, g, lam, N):
    """The moment series summed in mpmath, with the kernel coefficients from
    their closed form e_{mr-k} = theta^(-k) b_m prod_{i<k} (mr - i + a_i),
    b_m the coefficients of j_mu in x^r."""
    r = mu.r
    with mpmath.workdps(60):
        theta = mpmath.exp(1j * mpmath.pi / r)
        a_k = [r * mpmath.mpf(al) + k for k, al in enumerate(mu.alphas)]
        b = [mpmath.mpf(1)]
        for m in range(N // r + 1):
            den = mpmath.mpf(r) ** r
            for al in mu.alphas:
                den *= mpmath.mpf(al) + 1 + m
            b.append(-b[-1] / den)
        s, lam, total = mpmath.mpf(g.decay_scale), mpmath.mpc(lam), mpmath.mpc(0)
        for i, cd in enumerate(g.poly.coeffs):
            d = g.poly.n_min + i
            for n in range(N + 1):
                if cd == 0 or (d + n) % r:
                    continue
                m = -(-n // r)
                e_n = b[m] * theta ** (n - m * r)
                for j in range(m * r - n):
                    e_n *= m * r - j + a_k[j]
                p = (d + n + mpmath.mpf(a) + 1) / r
                total += mpmath.mpc(cd) * e_n * lam ** n * mpmath.gamma(p) * s ** (-p)
        return complex(total)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["gaussian", "poly", "twisted"])
def test_moment_transform_matches_quadrature(r, kind):
    mu = rd.IndexVector(r, MOMENT_INDICES[r])
    g = _moment_input(r, kind)
    lams = np.array([-1.7, 0.0, 0.6, 2.3, 1.2 + 0.6j, -0.4 - 1.1j])
    for a in (0.0, 1.0, 2.0, 2.7):
        got, err = moment_transform(mu, a, g, lams)
        want = np.array([dunkl_transform_F(mu, a, g, lam, n_nodes=400) for lam in lams])
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        assert np.all(err <= 1e-10 * (1.0 + np.abs(got)))


@pytest.mark.parametrize("r,kind,lam", [(2, "poly", 5.0), (4, "gaussian", 12.0)])
def test_moment_transform_beyond_the_quadrature_range(r, kind, lam):
    mu = rd.IndexVector(r, MOMENT_INDICES[r])
    c = CyclicStructure(r)
    g = ray_poly(c, [0.0, 1.0]) if kind == "poly" else ray_poly(c, [1.0], decay_scale=0.5)
    with pytest.raises(SeriesOverflowError):
        dunkl_transform_F(mu, 2.0, g, lam)
    got, err = moment_transform(mu, 2.0, g, [lam])
    N = kernel_series_degree(r, lam * _kernel_Tmax(c, g.decay_scale, lam))
    want = _mp_moment_series(mu, 2.0, g, lam, N + 4 * r)
    assert np.isfinite(err[0]) and abs(got[0] - want) <= err[0]


@pytest.mark.parametrize("r,kind", [(2, "poly"), (4, "gaussian")])
def test_moment_transform_overflow_regime_is_certified_or_refused(r, kind):
    mu = rd.IndexVector(r, MOMENT_INDICES[r])
    c = CyclicStructure(r)
    g = ray_poly(c, [0.0, 1.0]) if kind == "poly" else ray_poly(c, [1.0], decay_scale=0.5)
    lams = np.linspace(11.0, 12.0, 5)
    got, err = moment_transform(mu, 2.0, g, lams)
    N = kernel_series_degree(r, 12.0 * _kernel_Tmax(c, g.decay_scale, 12.0))
    certified = np.isfinite(got) & (err <= 1e-10 * (1.0 + np.abs(got)))
    for lam, v, e in zip(lams[certified], got[certified], err[certified]):
        assert abs(v - _mp_moment_series(mu, 2.0, g, lam, N)) <= e
    assert certified.any() == (r == 4)  # r = 4 certifies lam = 11, r = 2 refuses all


def test_moment_transform_rejects_bad_parameters():
    g = ray_poly(CyclicStructure(2), [1.0])
    with pytest.raises(ParameterError):
        moment_transform(rd.IndexVector(2, (0.3, 0.5)), 1.5, g, [1.0])
    with pytest.raises(ParameterError):
        moment_transform(rd.IndexVector(2, (0.0, 0.5)), -0.5, g, [1.0])
    # x^-2 exp(-x^2) against t^0.5: the lam^0 moment diverges at the origin
    with pytest.raises(ParameterError):
        moment_transform(rd.IndexVector(2, (0.0, 0.5)), 0.5,
                         ray_poly(CyclicStructure(2), [1.0], d_min=-2), [1.0])


# -- where the moment series stops --------------------------------------------

def _untruncated_horner(coef, lams):
    """Reference: Horner over every degree of the moment series, with the
    magnitudes sum_n |coef_n| |lam|^n of the same pass."""
    vals, mags = np.zeros_like(lams), np.zeros(lams.shape)
    for k in range(len(coef) - 1, -1, -1):
        vals = vals * lams + coef[k]
        mags = mags * np.abs(lams) + np.abs(coef[k])
    return vals, mags


#: (mu, a, input, lam grid) of the transform benchmark's three cases at
#: max |lam| 2.8 and 3
WORKLOAD_CASES = [
    (mu, a, g, np.linspace(-lm, lm, 41))
    for mu, a, g in (
        (MOMENT_INDICES[2], 2.0, ray_poly(CyclicStructure(2), [0.0, 1.0])),
        ((0.0, 0.5666666666666667, -0.6666666666666666), 2.7,
         ray_poly(CyclicStructure(3), [1.0], decay_scale=0.5)),
        (MOMENT_INDICES[4], 2.0, ray_poly(CyclicStructure(4), [1.0], decay_scale=0.5)),
    )
    for lm in (2.8, 3.0)
]
#: and the grid of test_moment_transform_matches_quadrature
QUADRATURE_GRID_CASES = [
    (MOMENT_INDICES[r], a, _moment_input(r, kind),
     np.array([-1.7, 0.0, 0.6, 2.3, 1.2 + 0.6j, -0.4 - 1.1j]))
    for r in (2, 3, 4, 5) for kind in ("gaussian", "poly") for a in (0.0, 1.0, 2.0, 2.7)
]


def _truncation(alphas, a, g, lams):
    """(values, error) of moment_transform, the series coefficients, n*, and
    the grid as a complex array."""
    mu = rd.IndexVector(len(alphas), alphas)
    lams = np.asarray(lams, dtype=complex)
    lam_abs = float(np.max(np.abs(lams)))
    coef = _moment_coefficients(mu, a, g, lam_abs)
    top, _ = _kept_degree(np.abs(coef), lam_abs)
    assert top < len(coef) - 1  # the sum does stop early here
    return *moment_transform(mu, a, g, lams), coef, top, lams


@pytest.mark.parametrize("alphas, a, g, lams", WORKLOAD_CASES)
def test_benchmark_grids_equal_the_untruncated_horner_bit_for_bit(alphas, a, g, lams):
    got, _, coef, _, lams = _truncation(alphas, a, g, lams)
    want, _ = _untruncated_horner(coef, lams)
    assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)


@pytest.mark.parametrize("alphas, a, g, lams", WORKLOAD_CASES + QUADRATURE_GRID_CASES)
def test_truncated_series_is_within_its_estimate_of_the_whole_sum(alphas, a, g, lams):
    got, err, coef, top, lams = _truncation(alphas, a, g, lams)
    # the kept degrees are summed exactly as a plain Horner pass sums them
    kept, _ = _untruncated_horner(coef[:top + 1], lams)
    assert np.array_equal(got.real, kept.real) and np.array_equal(got.imag, kept.imag)
    # the estimate covers the dropped part and the distance to the whole sum
    dropped = _untruncated_horner(np.where(np.arange(len(coef)) > top, coef, 0.0), lams)[1]
    assert np.all(err >= dropped)
    want, _ = _untruncated_horner(coef, lams)
    assert np.all(np.abs(got - want) <= err)


def test_kept_degree_keeps_every_degree_of_a_non_finite_list():
    for bad in (np.inf, np.nan):
        mags = np.array([1.0, 0.5, bad, 0.25, 0.0, 1e-30])
        assert _kept_degree(mags, 2.0) == (5, 0.0)
    # and the first degree whose tail is small enough otherwise
    mags = np.array([1.0, 0.5, 2.0 ** -70, 2.0 ** -80])
    top, tail = _kept_degree(mags, 1.0)
    assert (top, tail) == (1, 2.0 ** -70 + 2.0 ** -80)


@pytest.mark.parametrize("kind", ["poly:0,1", "gaussian"])
def test_grid_of_zero_returns_the_constant_coefficient(kind):
    mu = rd.IndexVector(2, MOMENT_INDICES[2])
    c = CyclicStructure(2)
    g = ray_poly(c, [0.0, 1.0]) if kind == "poly:0,1" else ray_poly(c, [1.0], decay_scale=0.5)
    got, _ = moment_transform(mu, 2.0, g, [0.0])
    assert got[0] == _moment_coefficients(mu, 2.0, g, 0.0)[0]
    if kind == "poly:0,1":
        assert got[0] == 0.0
    else:
        assert got[0] != 0.0
