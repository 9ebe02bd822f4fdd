from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import rdunkl as rd
from rdunkl._errors import ParameterError
from rdunkl.hilbert import (
    RayMap,
    apply_D_star,
    dunkl_adjoint_residual,
    dunkl_antisymmetry_residual,
    inner_product_plain,
    integration_by_parts_check,
    multiplication_adjoint_residuals,
    pairing,
    projector_symmetry_check,
    ray_ddx,
    ray_dunkl,
    ray_lincomb,
    ray_mul_power,
    ray_poly,
    ray_power,
    ray_project,
    ray_projection,
    _random_test_function,
)
from rdunkl.quadrature import gauss_jacobi_rule, gauss_legendre_rule
from rdunkl.series import CyclicStructure, evaluate
from rdunkl.transforms import _auto_Tmax


def _product(f, g, a, c):
    """<f, g>_a of two family members with decay 1, cut where their product
    exp(-2 t^r) is negligible."""
    return inner_product_plain(f, g, a, _auto_Tmax(c.r, 2.0, 0.0), 400, c)


def test_norm_of_x_gaussian():
    # <f, f>_1 with f = x e^{-x^2} equals 2 int t^3 e^{-2t^2} dt = 1/4
    c = CyclicStructure(2)
    f = ray_poly(c, [0.0, 1.0])
    assert abs(_product(f, f, 1.0, c) - 0.25) < 1e-10


def test_hermitian_symmetry():
    c = CyclicStructure(3)
    rng = np.random.default_rng(0)
    f = _random_test_function(c, rng)
    g = _random_test_function(c, rng)
    assert abs(_product(f, g, 1.7, c) - np.conj(_product(g, f, 1.7, c))) < 1e-12


def test_reduces_to_weighted_line_integral_r2():
    # r=2 with a = 2 alpha + 1 matches the |t|^(2 alpha + 1) integral over R
    alpha = 0.6
    c = CyclicStructure(2)
    f = ray_poly(c, [1.0, 0.0, 2.0])
    g = ray_poly(c, [0.5, 1.0])
    got = _product(f, g, 2 * alpha + 1.0, c)

    def integrand(t):
        total = 0.0
        for sgn in (1.0, -1.0):
            z = sgn * t
            total += (1 + 2 * z ** 2) * (0.5 + z) * np.exp(-2 * t ** 2)
        return total * t ** (2 * alpha + 1)

    want, _ = quad(integrand, 0, 12, epsabs=1e-13, epsrel=1e-13)
    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("r,i", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_projector_symmetry_and_orthogonality(r, i):
    c = CyclicStructure(r)
    rep = projector_symmetry_check(i, 2.7, c, np.random.default_rng(5))
    assert rep.passed and rep.residual < 1e-9


@pytest.mark.parametrize("r,a", [(2, 1.4), (3, 2.1), (4, 1.9)])
def test_integration_by_parts(r, a):
    c = CyclicStructure(r)
    f = ray_poly(c, [0, 0, 1.0])
    g = ray_poly(c, [0, 1.0])
    rep = integration_by_parts_check(f, g, a)
    assert rep.passed and rep.residual < 1e-8


def test_integration_by_parts_constant_pair():
    c = CyclicStructure(3)
    f = ray_poly(c, [1.0])
    rep = integration_by_parts_check(f, f, 2.1)
    assert rep.residual < 1e-8


def test_untwisted_rule_breaks_off_real_rays():
    # dropping the x/conj(x) factor only balances for r = 2
    c2 = CyclicStructure(2)
    f2, g2 = ray_poly(c2, [0, 0, 1.0]), ray_poly(c2, [0, 1.0])
    assert integration_by_parts_check(f2, g2, 1.8, ray_twist=False).residual < 1e-8
    c3 = CyclicStructure(3)
    f3, g3 = ray_poly(c3, [0, 0, 1.0]), ray_poly(c3, [0, 1.0])
    assert integration_by_parts_check(f3, g3, 2.1, ray_twist=False).residual > 1e-2


@pytest.mark.parametrize("r", [2, 3])
def test_dunkl_adjointness_random_draws(r):
    c = CyclicStructure(r)
    rng = np.random.default_rng(20 + r)
    worst = 0.0
    for _ in range(10):
        alphas = tuple(rng.uniform(0.05, 2.0, r))
        mu = rd.IndexVector(r, alphas)
        a = float(rng.uniform(1.1, 3.0))
        worst = max(worst, dunkl_adjoint_residual(
            mu, a, _random_test_function(c, rng), _random_test_function(c, rng)))
    assert worst < 1e-8


def test_classical_antisymmetry_r2():
    alpha = 0.6
    c = CyclicStructure(2)
    mu = rd.IndexVector(2, (0.0, alpha))
    rng = np.random.default_rng(9)
    resid = dunkl_antisymmetry_residual(mu, 2 * alpha + 1.0, _random_test_function(c, rng),
                                        _random_test_function(c, rng))
    assert resid < 1e-8


def test_classical_adjoint_is_minus_dunkl_pointwise():
    alpha = 0.6
    c = CyclicStructure(2)
    mu = rd.IndexVector(2, (0.0, alpha))
    rng = np.random.default_rng(9)
    g = _random_test_function(c, rng)
    ds = apply_D_star(mu, 2 * alpha + 1.0, g)
    dg = ray_dunkl(mu, g)
    t = np.linspace(0.2, 3.0, 9)
    worst = max(np.max(np.abs(ds.on_ray(m, t) + dg.on_ray(m, t))) for m in range(2))
    assert worst < 1e-12


def test_r3_adjoint_claim_is_measured_nonzero():
    # the surviving grade-0 term keeps D* from being -D for these parameters;
    # the residual is reported, never asserted small
    v = 0.9
    c = CyclicStructure(3)
    mu = rd.IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
    rng = np.random.default_rng(11)
    resid = dunkl_antisymmetry_residual(mu, 3 * v, _random_test_function(c, rng),
                                        _random_test_function(c, rng))
    assert resid > 1e-3  # stays meaningfully away from zero
    # while the true adjoint pairing still closes
    assert dunkl_adjoint_residual(mu, 3 * v, _random_test_function(c, rng),
                                  _random_test_function(c, rng)) < 1e-8


def test_multiplication_adjoints():
    c = CyclicStructure(3)
    rng = np.random.default_rng(2)
    f = _random_test_function(c, rng)
    g = _random_test_function(c, rng)
    r1, r2 = multiplication_adjoint_residuals(f, g, 2.2)
    assert r1 < 1e-9 and r2 < 1e-9


def test_ray_family_closure_operations():
    c = CyclicStructure(3)
    f = ray_poly(c, [1.0, 2.0, 0.5])
    t = np.linspace(0.1, 2.0, 5)
    # derivative matches finite differences on ray 0
    h = 1e-6
    fd = (f.on_ray(0, t + h) - f.on_ray(0, t - h)) / (2 * h)
    assert np.max(np.abs(ray_ddx(f).on_ray(0, t) - fd)) < 1e-7
    # projection keeps only matching degrees
    p = ray_project(f, 1)
    assert p.poly.coeffs[2] == 0.5 and p.poly.coeffs[0] == 0.0
    # power shifts
    assert np.max(np.abs(ray_mul_power(f, 2).on_ray(0, t) - t ** 2 * f.on_ray(0, t))) < 1e-14


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("coeffs,d_min", [
    ([0.0, 1.0, 0.0, 0.0, 2.0], 0),
    ([0.5, 1.0, 0.0, 0.0, 2.0], -1),
], ids=["regular", "principal"])
def test_dunkl_on_family_matches_pointwise_definition(r, coeffs, d_min):
    # the family-level Dunkl action against finite differences of the closed
    # form plus the explicit projector terms, ray by ray
    c = CyclicStructure(r)
    mu = rd.IndexVector(r, (0.3, 0.8, 1.1, 0.6, 0.9)[:r])
    f = ray_poly(c, coeffs, d_min)
    df = ray_dunkl(mu, f)
    t = np.linspace(0.3, 1.5, 4)
    h = 1e-6
    for m in range(r):
        om = c.omega_pow(m)
        # d/dz along the ray: (d/dt f(om t)) / om
        num = (rd.evaluate(f.poly, om * (t + h)) * np.exp(-(t + h) ** r)
               - rd.evaluate(f.poly, om * (t - h)) * np.exp(-(t - h) ** r)) / (2 * h) / om
        proj_term = np.zeros_like(t, dtype=complex)
        for k in range(r):
            proj_term += mu.a[k] * ray_project(f, k).on_ray(m, t)
        want = num + proj_term / (om * t)
        assert np.max(np.abs(df.on_ray(m, t) - want)) < 1e-6


# -- all rays in one call against the ray-by-ray reference ------------------------
#
# The references below are the one-ray-at-a-time forms: each returns
# fn(m, t) for a single ray index m and calls its inputs one ray at a time.

def _ref_test_function(f):
    c = f.c

    def fn(m, t):
        return evaluate(f.poly, c.omega_pow(m) * t) * np.exp(-f.decay_scale * t ** c.r)

    return fn


def _ref_power(g, p, c, conjugate=False):
    def fn(m, t):
        om = np.conj(c.omega_pow(m)) if conjugate else c.omega_pow(m)
        return (om * t) ** p * g(m, t)

    return fn


def _ref_projection(g, k, c):
    def fn(m, t):
        acc = np.zeros(np.shape(t), dtype=complex)
        for n in range(c.r):
            acc = acc + c.omega_pow(n * k) * g(m + n, t)
        return acc / c.r

    return fn


def _ref_lincomb(terms, scale=1.0):
    def fn(m, t):
        acc = np.zeros(np.shape(t), dtype=complex)
        for w, term in terms:
            acc = acc + w * term(m, t)
        return scale * acc

    return fn


def _ref_D_star(mu, a, f):
    c, r = mu.cyclic, mu.r
    fprime = _ref_test_function(ray_ddx(f))
    projections = [_ref_test_function(ray_project(f, (k + 1) % r)) for k in range(r)]

    def fn(m, t):
        om = c.omega_pow(m)
        acc = om ** 2 * fprime(m, t).astype(complex)
        w = om / t
        for k in range(r):
            coef = a - mu.a[k]
            if coef != 0.0:
                acc = acc + coef * w * projections[k](m, t)
        return -acc

    return fn


def _ref_inner_product(f, g, a, rule, r):
    """sum_n w_n sum_m f(omega^m t_n) t_n^a conj(g(omega^m t_n)), ray by ray."""
    t = rule.nodes
    acc = np.zeros_like(t, dtype=complex)
    for m in range(r):
        acc += f(m, t) * (t ** a * np.conj(g(m, t)))
    return complex(np.sum(rule.weights * acc))


def _stacked(ref, r, t):
    return np.stack([ref(m, t) for m in range(r)])


def _family(r):
    c = CyclicStructure(r)
    rng = np.random.default_rng(40 + r)
    f = _random_test_function(c, rng)
    principal = ray_poly(c, rng.standard_normal(6) + 1j * rng.standard_normal(6), -2, 0.7)
    return c, f, principal


RAY_T = np.linspace(0.05, 3.0, 23)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_all_ray_compositions_equal_ray_by_ray_reference(r):
    c, f, principal = _family(r)
    rays = np.arange(r)
    for h in (f, principal):
        ref = _ref_test_function(h)
        assert np.array_equal(h.on_ray(rays, RAY_T), _stacked(ref, r, RAY_T))
        for m in range(r):  # one index still gives values shaped like t
            assert np.array_equal(h.on_ray(m, RAY_T), ref(m, RAY_T))
        for p in (-2, -1, 1, 3):
            for conjugate in (False, True):
                got = ray_power(h, p, c, conjugate).on_ray(rays, RAY_T)
                assert np.array_equal(got, _stacked(_ref_power(ref, p, c, conjugate), r, RAY_T))
        for k in range(r):
            got = ray_projection(h, k, c).on_ray(rays, RAY_T)
            assert np.array_equal(got, _stacked(_ref_projection(ref, k, c), r, RAY_T))
    terms = [(0.3 - 1.1j, ray_projection(f, 1, c)), (2.0, ray_power(principal, -1, c, True)),
             (-0.5j, f)]
    ref_terms = [(0.3 - 1.1j, _ref_projection(_ref_test_function(f), 1, c)),
                 (2.0, _ref_power(_ref_test_function(principal), -1, c, True)),
                 (-0.5j, _ref_test_function(f))]
    got = ray_lincomb(terms, 0.75).on_ray(rays, RAY_T)
    assert np.array_equal(got, _stacked(_ref_lincomb(ref_terms, 0.75), r, RAY_T))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_inner_products_equal_ray_by_ray_sum(r):
    c, f, principal = _family(r)
    mu = rd.IndexVector(r, (0.0, 0.8, 1.1, 0.6, 0.9)[:r])
    Tmax = _auto_Tmax(r, 1.4, 0.0)
    rule = gauss_legendre_rule(200, 0.0, Tmax)
    pairs = [(f, principal, _ref_test_function(f), _ref_test_function(principal)),
             (ray_projection(f, 1, c), RayMap(_ref_D_star(mu, 2.3, principal)),
              _ref_projection(_ref_test_function(f), 1, c), _ref_D_star(mu, 2.3, principal))]
    for lhs, rhs, ref_lhs, ref_rhs in pairs:
        want = _ref_inner_product(ref_lhs, ref_rhs, 2.3, rule, r)
        assert np.array_equal(inner_product_plain(lhs, rhs, 2.3, Tmax, 200, c), want)


# -- the exact pairing against quadrature and mpmath ------------------------------

def _mp_pairing(f, g, a):
    """<f, g>_a as an mpmath sum of the Gamma moments over the pairs the ray
    sum keeps, with the parameter arithmetic in mpf."""
    r = f.c.r
    with mpmath.workdps(40):
        S = mpmath.mpf(f.decay_scale) + mpmath.mpf(g.decay_scale)
        total = mpmath.mpc(0)
        for i, ci in zip(f.poly.degrees, f.poly.coeffs):
            for j, dj in zip(g.poly.degrees, g.poly.coeffs):
                if (i + f.twist - j - g.twist) % r or ci == 0 or dj == 0:
                    continue
                p = (int(i) + int(j) + mpmath.mpf(a) + 1) / r
                total += mpmath.mpc(ci) * mpmath.conj(mpmath.mpc(dj)) * mpmath.gamma(p) * S ** -p
        return complex(total)


def _pairing_operands(r):
    """Pairs (f, g) covering principal parts (d_min = -2, decay 0.7), D_mu
    images and twists 2 (D*, 1/conj(x)) and -2 (conj(x)), each with
    min deg f + min deg g >= 0, where the quadrature oracle is spectrally
    accurate."""
    c, f, principal = _family(r)
    g = _random_test_function(c, np.random.default_rng(50 + r))
    mu = rd.IndexVector(r, (0.3, 0.8, 1.1, 0.6, 0.9)[:r])
    g2, g3 = ray_mul_power(g, 2), ray_mul_power(g, 3)
    return [
        (f, g),
        (principal, g2),
        (ray_dunkl(mu, f), g2),
        (ray_dunkl(mu, principal), g3),
        (g2, apply_D_star(mu, 2.3, f)),
        (apply_D_star(mu, 2.3, principal), g3),
        (replace(ray_mul_power(f, 1), twist=-2), g),
        (replace(ray_mul_power(principal, -1), twist=2), g3),
    ]


def _jacobi_product(f, g, a, c, decay=0.7, max_degree=24, n_nodes=200):
    """<f, g>_a by Gauss-Jacobi with t^(a-1) in the weight, times t, cut
    where t^(max_degree + a) exp(-2 decay t^r) falls below 1e-15: spectrally
    accurate on family members of degree <= max_degree and decay >= decay,
    so a tighter quadrature oracle of ``pairing`` than the t^a-in-integrand
    Legendre rule of ``inner_product_plain``."""
    T = (38.0 / (2.0 * decay)) ** (1.0 / c.r)
    while T ** (max_degree + a) * np.exp(-2.0 * decay * T ** c.r) > 1e-15:
        T += 0.25
    rule = gauss_jacobi_rule(0.0, a - 1.0, n_nodes)
    t = T * rule.nodes
    rays = np.arange(c.r)
    ray_sum = np.sum(f.on_ray(rays, t) * np.conj(g.on_ray(rays, t)), axis=0)
    return complex(np.sum(T ** a * rule.weights * t * ray_sum))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_pairing_matches_quadrature_and_mpmath(r):
    c = CyclicStructure(r)
    for f, g in _pairing_operands(r):
        got = pairing(f, g, 2.3)
        assert abs(got - _jacobi_product(f, g, 2.3, c)) <= 1e-13 * abs(got)
        assert abs(got - _mp_pairing(f, g, 2.3)) <= 1e-13 * abs(got)


def test_pairing_refuses_a_divergent_surviving_pair():
    c = CyclicStructure(3)
    h = ray_poly(c, [1.0, 0.0, 0.0, 0.5], d_min=-2)
    with pytest.raises(ParameterError):  # x^-2 x^-2 against t^0.5
        pairing(h, h, 0.5)
    # a stored zero at degree -2 pairs with nothing
    assert pairing(ray_poly(c, [0.0, 0.0, 0.0, 1.0], d_min=-2), h, 0.5) != 0


def test_family_operators_refuse_twisted_members():
    c = CyclicStructure(3)
    mu = rd.IndexVector(3, (0.0, 0.8, 1.1))
    twisted = apply_D_star(mu, 2.3, ray_poly(c, [1.0, 0.5]))
    assert twisted.twist == 2
    for op in (ray_ddx, lambda h: ray_dunkl(mu, h), lambda h: ray_project(h, 1),
               lambda h: ray_mul_power(h, 1), lambda h: apply_D_star(mu, 2.3, h)):
        with pytest.raises(ParameterError):
            op(twisted)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_family_D_star_equals_the_ray_formula(r):
    c, f, principal = _family(r)
    mu = rd.IndexVector(r, (0.0, 0.8, 1.1, 0.6, 0.9)[:r])
    rays = np.arange(r)
    for h in (f, principal):
        want = _stacked(_ref_D_star(mu, 2.3, h), r, RAY_T)
        got = apply_D_star(mu, 2.3, h).on_ray(rays, RAY_T)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_suite_hilbert_builds_no_gauss_rule(r, monkeypatch):
    # every gated hilbert report is an exact coefficient identity
    import sys

    from rdunkl.verify import suite_hilbert

    def refuse(*args, **kwargs):
        raise AssertionError("suite_hilbert built a Gauss rule")

    for mod in [m for name, m in sys.modules.items() if name.startswith("rdunkl")]:
        for name in ("gauss_jacobi_rule", "gauss_legendre_rule"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    reports = suite_hilbert(r, 0, 48, 60)
    assert {"hilbert.dunkl_adjointness", "hilbert.integration_by_parts"} <= {
        rep.check_id for rep in reports}
    assert all(rep.passed for rep in reports)
