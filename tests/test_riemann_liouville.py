import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import rdunkl as rd
from rdunkl._errors import (ConvergenceWarning, DomainError, ParameterError, PoleError,
                            SingularError)
from rdunkl.riemann_liouville import (
    apply_R_adjoint,
    apply_R_inverse_derivative_form,
    apply_R_inverse_series,
    apply_R_quadrature,
    apply_R_series,
    composition_law_check,
    l_coefficient,
    l_coefficients,
    product_factorization_check,
)
from rdunkl.quadrature import gauss_jacobi_rule
from rdunkl.special import gamma_ratio
from rdunkl.series import LaurentSeries, monomial


def test_l_coefficient_elementary():
    assert abs(l_coefficient(0, 1.0, 2) - 1.0) < 1e-15
    assert abs(l_coefficient(2, 1.0, 2) - 1.0 / 3.0) < 1e-15  # int_0^1 t^2 dt


def test_l_coefficient_quadrature_cross_check():
    # r=3, alpha=0.5, n=1 against direct numerical integration
    got = l_coefficient(1, 0.5, 3)
    want, _ = quad(lambda t: t * (1 - t ** 3) ** (-0.5), 0, 1, epsabs=1e-14)
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_l_coefficients_equal_the_scalar_factor_bit_for_bit(r):
    # random orders, orders k/r where Gamma(alpha + (n+1)/r) has poles at
    # negative degrees, and orders near 0; degrees -30..200 off the poles
    # of Gamma((n+1)/r)
    rng = np.random.default_rng(r)
    alphas = np.concatenate((rng.uniform(0.0, 6.0, 40), np.arange(1, 9) / r,
                             rng.uniform(0.0, 1e-3, 5)))
    n = np.arange(-30, 201)
    n = n[~((n < 0) & ((n + 1) % r == 0))]
    for alpha in alphas.tolist():
        got = l_coefficients(n, alpha, r)
        assert np.array_equal(got, [l_coefficient(int(k), alpha, r) for k in n])


def test_l_coefficients_refuse_what_the_scalar_factor_refuses():
    with pytest.raises(ParameterError):
        l_coefficients(np.arange(3), 0.0, 2)
    with pytest.raises(PoleError):
        l_coefficient(-3, 0.5, 2)
    with pytest.raises(PoleError):
        l_coefficients(np.array([0, -3, 2]), 0.5, 2)


def test_apply_R_series_and_principal_rejection():
    f = monomial(2, n_max=5)
    out = apply_R_series(1.0, f, 2)
    assert abs(out[2] - 1.0 / 3.0) < 1e-15
    with pytest.raises(DomainError):
        apply_R_series(1.0, monomial(-1), 2)


def test_apply_R_quadrature_constant_and_monomials():
    # g = 1 returns (1/r) B(1/r, alpha)
    alpha, r = 0.8, 3
    got = apply_R_quadrature(alpha, lambda z: np.ones_like(z), 1.0, r)
    want = (1.0 / r) * math.gamma(1.0 / r) * math.gamma(alpha) / math.gamma(1.0 / r + alpha)
    assert abs(got - want) < 1e-13
    for n in range(0, 8):
        got = apply_R_quadrature(alpha, lambda z, n=n: z ** n, 1.3, r)
        want = l_coefficient(n, alpha, r) * 1.3 ** n
        assert abs(got - want) / abs(want) < 1e-12


def test_apply_R_quadrature_cosine():
    # alpha = 1, r = 2: int_0^1 cos(pi t / 2) dt = 2/pi
    got = apply_R_quadrature(1.0, np.cos, np.pi / 2.0, 2)
    assert abs(got - 2.0 / np.pi) < 1e-12


def test_inverse_series_round_trip_and_explicit_factor():
    rng = np.random.default_rng(3)
    f = LaurentSeries(0, rng.standard_normal(25) + 1j * rng.standard_normal(25))
    for order, r in [(0.5, 2), (1.5, 2), (2.3, 3)]:
        back = apply_R_inverse_series(order, apply_R_series(order, f, r), r)
        assert rd.series_residual(back, f) < 1e-13
    # r=2, order=1.5: the x^2 coefficient divides by (1/2)G(3/2)G(1.5)/G(3)
    g = apply_R_inverse_series(1.5, monomial(2, n_max=4), 2)
    want = 1.0 / ((0.5) * math.gamma(1.5) * math.gamma(1.5) / math.gamma(3.0))
    assert abs(g[2] - want) / want < 1e-14


def test_integer_order_inverse_matches_derivative_formula():
    # R_{k+1}^{-1} = (r/k!) x^(r-1) ((1/(r x^(r-1))) d/dx)^(k+1) x^(1+kr):
    # on x^n the right side multiplies by (r/k!) prod_j (n+1+kr-jr)/r, which
    # must equal the reciprocal diagonal factor of R_{k+1}
    for r, k in [(2, 0), (2, 1), (3, 2)]:
        for n in range(0, 8):
            lhs = 1.0 / l_coefficient(n, k + 1.0, r)
            mult = 1.0
            for j in range(k + 1):
                mult *= (n + 1 + k * r - j * r) / r
            rhs = (r / math.factorial(k)) * mult
            assert abs(lhs - rhs) / abs(lhs) < 1e-13


@pytest.mark.parametrize("k,alpha,r,x,tol", [
    (0, 0.5, 2, 1.0, 1e-6),
    (1, 0.3, 3, 0.8, 1e-5),
    (0, 0.4, 2, 0.5, 1e-6),
])
def test_derivative_form_inverse_recovers_polynomials(k, alpha, r, x, tol):
    order = k + alpha
    n = 2 if k == 0 else 3
    coef = l_coefficient(n, order, r)
    got = apply_R_inverse_derivative_form(k, alpha, lambda u: coef * u ** n, x, r)
    assert abs(got - x ** n) / x ** n < tol


def test_derivative_form_inverse_recovers_constant():
    # g built as R of 1
    k, alpha, r = 0, 0.5, 2
    coef = l_coefficient(0, k + alpha, r)
    got = apply_R_inverse_derivative_form(k, alpha, lambda u: coef * np.ones_like(u), 1.0, r)
    assert abs(got - 1.0) < 1e-6


def test_derivative_vs_series_inverse_on_grid():
    # the two inverse routes agree at finite-difference accuracy
    r, k, alpha = 2, 1, 0.45
    order = k + alpha
    n = 4
    coef = l_coefficient(n, order, r)
    for x in (0.2, 0.9, 2.0):
        got = apply_R_inverse_derivative_form(k, alpha, lambda u: coef * u ** n, x, r)
        assert abs(got - x ** n) / x ** n < 1e-5


def test_adjoint_elementary_values():
    # alpha=1, r=2, a=2: integral_1^inf e^{-t^2} t dt = e^{-1}/2 at u=1
    got = apply_R_adjoint(1.0, 2.0, lambda s: np.exp(-s ** 2), 1.0, 2, Tmax=9.0)
    assert abs(got - math.exp(-1.0) / 2.0) < 1e-10
    # a=1 drops the t factor: integral_1^inf e^{-t^2} dt = (sqrt(pi)/2) erfc(1)
    from scipy.special import erfc

    got = apply_R_adjoint(1.0, 1.0, lambda s: np.exp(-s ** 2), 1.0, 2, Tmax=9.0)
    assert abs(got - 0.5 * math.sqrt(math.pi) * erfc(1.0)) < 1e-10


def test_adjoint_linearity():
    g1 = lambda s: np.exp(-s ** 2)
    g2 = lambda s: s * np.exp(-s ** 2)
    both = lambda s: 2.0 * g1(s) - 3.0 * g2(s)
    v = apply_R_adjoint(0.8, 1.5, both, 0.7, 2, Tmax=9.0)
    v1 = apply_R_adjoint(0.8, 1.5, g1, 0.7, 2, Tmax=9.0)
    v2 = apply_R_adjoint(0.8, 1.5, g2, 0.7, 2, Tmax=9.0)
    assert abs(v - (2.0 * v1 - 3.0 * v2)) < 1e-13


def test_product_factorization_examples():
    assert product_factorization_check(rd.IndexVector(2, (0.0, 0.75)), 60).residual < 1e-13
    mu3 = rd.IndexVector(3, (0.0, 0.6 - 1 / 3, 0.1))
    assert product_factorization_check(mu3, 60).residual < 1e-13
    # degenerate index: the chain is empty and j equals cos_r exactly
    mu_deg = rd.IndexVector(3, (0.0, -1 / 3, -2 / 3))
    assert product_factorization_check(mu_deg, 60).residual < 1e-14


def test_composition_law_beta_factor():
    # exact as printed at k = 0 (factor 1), and with the Beta factor beyond
    rep0 = composition_law_check(0, 0.6, 2)
    assert rep0.passed and abs(rep0.params["beta_factor"] - 1.0) < 1e-14
    rep1 = composition_law_check(1, 0.6, 2)
    assert rep1.passed
    want = math.gamma(2.0) * math.gamma(0.6) / math.gamma(1.6)
    assert abs(rep1.params["beta_factor"] - want) < 1e-13
    assert composition_law_check(2, 0.35, 3).passed


def test_inverse_rejects_nonpositive_order():
    with pytest.raises(ParameterError):
        apply_R_inverse_series(0.0, monomial(1), 2)


def test_inverse_series_names_the_degree_whose_factor_vanishes():
    # l_n^(1/3) at r = 3 has 1/Gamma(1/3 + (n+1)/3) = 1/Gamma(0) = 0 for n = -2
    with pytest.raises(SingularError, match="degree -2"):
        apply_R_inverse_series(1 / 3, LaurentSeries(-2, [0.0]), 3)


def test_series_operators_accept_a_zero_principal_part():
    # differentiating a polynomial stores a zero coefficient at degree -1,
    # where Gamma((n+1)/r) in l_n has its pole
    f = rd.differentiate(LaurentSeries(0, [2, 3, 1]))
    assert f.n_min == -1 and f[-1] == 0.0
    trimmed = LaurentSeries(0, f.coeffs[1:])
    for op in (apply_R_series, apply_R_inverse_series):
        got, want = op(0.7, f, 3), op(0.7, trimmed, 3)
        assert (got.n_min, got.valid_order) == (f.n_min, f.valid_order)
        assert got[-1] == 0.0
        assert all(got[n] == want[n] for n in range(0, f.n_max + 1))
    back = apply_R_inverse_series(0.7, apply_R_series(0.7, f, 3), 3)
    assert rd.series_residual(back, f) < 1e-15 and back[-1] == 0.0


def test_inverse_series_refuses_a_vanishing_factor_under_optimization():
    # python -O strips assert statements; the refusal must not depend on one
    code = ("from rdunkl._errors import SingularError\n"
            "from rdunkl.riemann_liouville import apply_R_inverse_series\n"
            "from rdunkl.series import LaurentSeries\n"
            "try:\n"
            "    print(apply_R_inverse_series(1 / 3, LaurentSeries(-2, [0.0]), 3).coeffs)\n"
            "except SingularError as exc:\n"
            "    print('SingularError:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-W", "error", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.startswith("SingularError:") and "degree -2" in proc.stdout


# base points on both sides of Tmax / 2 = 4: part B is skipped from 4.0 on
BASE_POINTS = np.array([0.05, 0.4, 1.3, 3.9, 4.0, 6.5])


def _adjoint_reference(alpha, a, g, u, r, Tmax, n):
    # the per-point R* loop in the relative coordinate t, as it stood before
    # the quadrature was vectorized over base points
    from rdunkl.quadrature import gauss_jacobi_rule, gauss_legendre_rule

    expo = a - 1.0 - r * (alpha - 1.0)
    SA = 2.0 ** r - 1.0
    ruleA = gauss_jacobi_rule(0.0, alpha - 1.0, n)
    sA = SA * ruleA.nodes
    tA = (1.0 + sA) ** (1.0 / r)
    acc = np.sum(SA ** alpha * ruleA.weights / r * g(u * tA)
                 * (1.0 + sA) ** ((expo + 1.0 - r) / r))
    if Tmax / u > 2.0:
        tb = gauss_legendre_rule(n, 2.0, Tmax / u).nodes
        wb = gauss_legendre_rule(n, 2.0, Tmax / u).weights
        acc += np.sum(wb * g(u * tb) * (tb ** r - 1.0) ** (alpha - 1.0) * tb ** expo)
    return complex(acc)


def test_adjoint_vectorized_matches_scalar_loop():
    g = lambda s: (1.0 + 0.5j * s) * np.exp(-s ** 3)
    for alpha, a, r in ((0.7, 1.8, 3), (1.3, 2.2, 2), (0.45, 3.1, 4)):
        got = apply_R_adjoint(alpha, a, g, BASE_POINTS, r, Tmax=8.0, n_nodes=40)
        assert got.shape == BASE_POINTS.shape
        loop = np.array([apply_R_adjoint(alpha, a, g, float(u), r, Tmax=8.0, n_nodes=40)
                         for u in BASE_POINTS])
        assert np.max(np.abs(got - loop) / np.abs(loop)) <= 1e-15
        ref = np.array([_adjoint_reference(alpha, a, g, u, r, 8.0, 40) for u in BASE_POINTS])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13


def test_adjoint_keeps_trailing_axes_of_g():
    # a g returning one column per function gives one adjoint per column
    fns = [lambda s: np.exp(-s ** 2), lambda s: s * np.exp(-s ** 2)]
    both = lambda s: np.stack([f(s) for f in fns], axis=-1)
    got = apply_R_adjoint(0.8, 1.5, both, BASE_POINTS, 2, Tmax=9.0)
    assert got.shape == (len(BASE_POINTS), 2)
    for k, f in enumerate(fns):
        want = apply_R_adjoint(0.8, 1.5, f, BASE_POINTS, 2, Tmax=9.0)
        assert np.max(np.abs(got[:, k] - want)) <= 1e-15 * np.max(np.abs(want))


def test_adjoint_rejects_nonpositive_base_point():
    with pytest.raises(ParameterError):
        apply_R_adjoint(0.8, 1.5, np.exp, np.array([0.5, 0.0]), 2)


def test_ray_r_star_agrees_with_adjoint_on_each_ray():
    from rdunkl.hilbert import ray_poly
    from rdunkl.series import CyclicStructure
    from test_transmutation import _ray_r_star

    c = CyclicStructure(3)
    g = ray_poly(c, [1.0, 0.4, 0.0, -0.2])
    beta, a = 0.9, 2.7
    ray = _ray_r_star(g, beta, a, 3, 48, 8.0)
    for m in range(3):
        got = ray.on_ray(m, BASE_POINTS)
        want = np.array([apply_R_adjoint(beta, a, lambda w: g.on_ray(m, w), float(u), 3,
                                         Tmax=8.0, n_nodes=48) for u in BASE_POINTS])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


def test_quadrature_mean_vectorized_matches_scalar_calls():
    g = lambda z: (z ** 3 - 2j * z) * np.exp(-z)
    xs = np.array([0.1, 0.9, 2.5])
    got = apply_R_quadrature(0.6, g, xs, 3, 32)
    for x, v in zip(xs, got):
        assert v == apply_R_quadrature(0.6, g, float(x), 3, 32)


def _derivative_form_reference(k, alpha, g, x, r, n_nodes=48):
    # the per-point recursion: one Gauss-Jacobi sum, with its own call of g,
    # at every stencil point of the nested Richardson differences
    def F(xx):
        rule = gauss_jacobi_rule(-alpha, (k + alpha) * r, n_nodes)
        s = rule.nodes
        q = np.ones_like(s)
        for j in range(1, r):
            q += s ** j
        vals = np.asarray(g(xx * s), dtype=float)
        return float(xx ** (1 + k * r) * np.sum(rule.weights * q ** (-alpha) * vals))

    h0 = 1e-3 * x

    def deriv_op(fn):
        def d(xx, h):
            return (fn(xx + h) - fn(xx - h)) / (2.0 * h)

        def out(xx):
            coarse = d(xx, h0)
            fine = d(xx, h0 / 2.0)
            val = (4.0 * fine - coarse) / 3.0
            if abs(fine - coarse) > 1e-4 * (1.0 + abs(val)):
                warnings.warn("finite-difference stencil lost more than half the target digits",
                              ConvergenceWarning)
            return val / (r * xx ** (r - 1))

        return out

    op = F
    for _ in range(k + 1):
        op = deriv_op(op)
    const = r ** 2 / (gamma_ratio([k + alpha], []) * gamma_ratio([1.0 - alpha], []))
    return const * x ** (r - 1) * op(x)


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = fn(*args)
    return val, sum(issubclass(w.category, ConvergenceWarning) for w in caught)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_derivative_form_one_quadrature_pass_equals_per_point_recursion(k, r):
    alpha = 0.35
    coef = l_coefficient(3, k + alpha, r)
    smooth = lambda u: coef * u ** 3 - 0.25 * np.exp(-u)
    # oscillating on the stencil's scale, so the differences warn
    rough = lambda u: np.sin(3000.0 * u)
    for g, warns in ((smooth, False), (rough, True)):
        for x in (0.2, 1.3):
            calls = []

            def counted(u, g=g):
                calls.append(np.shape(u))
                return g(u)

            got, n_got = _warned(apply_R_inverse_derivative_form, k, alpha, counted, x, r)
            want, n_want = _warned(_derivative_form_reference, k, alpha, g, x, r)
            assert got == want or (np.isnan(got) and np.isnan(want))
            assert calls == [(48 * 4 ** (k + 1),)]
            assert n_got == n_want and (n_got > 0) == warns
