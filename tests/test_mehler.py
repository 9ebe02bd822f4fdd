import math
import tracemalloc

import numpy as np
import pytest

import rdunkl as rd
from rdunkl import mehler
from rdunkl._errors import ParameterError
from rdunkl.mehler import MehlerWeight, beta_lemma_check, mehler_E, mehler_j
from rdunkl.quadrature import QuadratureRule, gauss_jacobi_rule, gauss_legendre_rule
from rdunkl.special import cos_r_value, gamma_ratio


def jacobi_moment(p: float, q: float, m: int) -> float:
    """integral_0^1 v^m (1-v)^p v^q dv, the Beta function B(q+m+1, p+1)."""
    return gamma_ratio([q + m + 1.0, p + 1.0], [p + q + m + 2.0])


def rule_exactness_residual(rule: QuadratureRule, p: float, q: float) -> float:
    """Worst relative error of the rule on monomials up to degree 2n-1."""
    n = len(rule.nodes)
    worst = 0.0
    for m in range(2 * n):
        got = float(np.sum(rule.weights * rule.nodes ** m))
        want = jacobi_moment(p, q, m)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    return worst


def test_gauss_legendre_cubic_exact():
    rule = gauss_legendre_rule(2)
    assert abs(rule.integrate(lambda v: v ** 3) - 0.25) < 1e-15


def test_gauss_jacobi_half_weight():
    rule = gauss_jacobi_rule(0.5, 0.0, 16)
    assert abs(rule.integrate(lambda v: np.ones_like(v)) - 2.0 / 3.0) < 1e-14


def test_gauss_jacobi_weight_sum_is_beta():
    for p, q in [(0.3, -0.4), (1.2, 0.0), (-0.5, -0.25)]:
        rule = gauss_jacobi_rule(p, q, 24)
        want = gamma_ratio([q + 1.0, p + 1.0], [p + q + 2.0])
        assert abs(np.sum(rule.weights) - want) / want < 1e-13


@pytest.mark.parametrize("p,q", [(0.0, 0.0), (0.75, -0.5), (-0.3, -0.6)])
def test_rule_exactness_on_monomials(p, q):
    rule = gauss_jacobi_rule(p, q, 12)
    assert rule_exactness_residual(rule, p, q) < 1e-12


def test_gauss_jacobi_rejects_bad_params():
    with pytest.raises(ParameterError):
        gauss_jacobi_rule(-1.0, 0.0, 4)
    with pytest.raises(ParameterError):
        gauss_jacobi_rule(0.0, -1.5, 4)


def test_jacobi_moment_against_quadrature():
    rule = gauss_jacobi_rule(0.4, -0.2, 20)
    for m in (0, 1, 5):
        got = float(np.sum(rule.weights * rule.nodes ** m))
        assert abs(got - jacobi_moment(0.4, -0.2, m)) < 1e-14


def test_beta_lemma_trivial_case():
    rep = beta_lemma_check(1.0, 1.0, 2)
    assert rep.residual < 1e-15  # both sides are exactly 1


def test_beta_lemma_generic_and_sqrt_pi():
    rep = beta_lemma_check(1.3, 0.7, 3, n_nodes=48)
    assert rep.passed and rep.residual < 1e-12
    rep = beta_lemma_check(0.5, 0.5, 2, n_nodes=48)
    # both sides equal pi
    assert rep.residual < 1e-12


def test_beta_lemma_sees_a_rule_with_two_weights_swapped(monkeypatch):
    # the rule integrates the non-constant Q(u)^(y-1), so moving mass between
    # nodes shows; a sum of the weights alone could not see it
    real = mehler.gauss_jacobi_rule

    def swapped(p, q, n):
        rule = real(p, q, n)
        w = rule.weights.copy()
        w[[10, 11]] = w[[11, 10]]
        return QuadratureRule(rule.nodes, w, rule.kind)

    assert beta_lemma_check(1.3, 0.7, 3).passed
    monkeypatch.setattr(mehler, "gauss_jacobi_rule", swapped)
    assert not beta_lemma_check(1.3, 0.7, 3).passed


def test_mehler_weight_normalization():
    # integrating 1 against the normalized weight returns j_mu(0) = 1
    for mu in [
        rd.IndexVector(2, (0.0, 0.75)),
        rd.IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3)),
        rd.IndexVector(3, (0.4, 0.6, 1.1)),
    ]:
        got = mehler_j(mu, 0.0)
        assert abs(got - 1.0) < 1e-10


def test_mehler_weight_removal_and_params():
    mu = rd.IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3))  # a = (0, 2.7, 0)
    w = MehlerWeight(mu)
    assert w.included == (1,)
    p, q = w.jacobi_params[0]
    assert abs(p - (0.9 - 1.0)) < 1e-15 and abs(q + 1 / 3) < 1e-15


def test_mehler_weight_rejects_nonintegrable():
    with pytest.raises(ParameterError):
        MehlerWeight(rd.IndexVector(2, (0.0, -0.7)))  # alpha_1 + 1/2 < 0 with a_1 != 0


def test_mehler_j_example_r2():
    # single included dimension with weight (1-u^2)^(alpha-1/2)
    mu = rd.IndexVector(2, (0.0, 0.75))
    got = mehler_j(mu, 1.0, 48)
    want = rd.bessel_j_value(mu, 1.0)
    assert abs(got - want) / (1 + abs(want)) < 1e-10


def test_mehler_j_example_r3():
    mu = rd.IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3))
    got = mehler_j(mu, 2.0, 48)
    want = rd.bessel_j_value(mu, 2.0)
    assert abs(got - want) / (1 + abs(want)) < 1e-9


def test_mehler_j_explicit_normalization_r2():
    # c = 2 Gamma(a+1)/(Gamma(a+1/2) Gamma(1/2)) for the one-dimensional case
    alpha = 0.75
    w = MehlerWeight(rd.IndexVector(2, (0.0, alpha)))
    want = 2.0 * math.gamma(alpha + 1.0) / (math.gamma(alpha + 0.5) * math.gamma(0.5))
    assert abs(w.c_norm - want) / want < 1e-14


@pytest.mark.parametrize(
    "mu",
    [
        rd.IndexVector(2, (0.0, 0.6)),
        rd.IndexVector(2, (0.3, 0.8)),
        rd.IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3)),
        rd.IndexVector(3, (0.2, 0.5, 1.0)),
    ],
)
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_mehler_j_matches_series_grid(mu, x):
    got = mehler_j(mu, x, 48)
    want = rd.bessel_j_value(mu, x)
    assert abs(got - want) / (1 + abs(want)) < 1e-9


@pytest.mark.parametrize(
    "mu",
    [
        rd.IndexVector(2, (0.0, 0.6)),
        rd.IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3)),
    ],
)
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_mehler_E_matches_series_grid(mu, x):
    got = mehler_E(mu, x, 48)
    want = rd.evaluate(rd.dunkl_kernel_series(mu, 1.0, 70), x)
    assert abs(got - want) / (1 + abs(want)) < 1e-8


def test_mehler_E_degenerate_collapses_to_exponential():
    for r in (2, 3):
        c = rd.CyclicStructure(r)
        mu = rd.IndexVector(r, tuple(-k / r for k in range(r)))
        got = mehler_E(mu, 1.3, 32)
        assert abs(got - np.exp(c.theta * 1.3)) < 1e-10


def test_mehler_E_classical_form_r2():
    # the collapsed integral (1/sqrt(pi)) (Gamma(a+1)/Gamma(a+1/2))
    # * int_{-1}^{1} e^{ixu} (1+u)(1-u^2)^(a-1/2) du
    alpha, x = 0.6, 1.5
    mu = rd.IndexVector(2, (0.0, alpha))
    rule = gauss_jacobi_rule(alpha - 0.5, 0.0, 400)  # on [0,1], singular end at u=1
    # map to [-1, 1]: u = 2v - 1, (1-u^2)^(a-1/2) = (2-2v)^(a-1/2)(2v)^(a-1/2)
    # simpler: split [-1,1] symmetric via two singular ends; use substitution
    # u = 1 - 2s with Jacobi weight in s at both ends handled by p = q = alpha - 1/2
    from scipy.special import roots_jacobi

    xs, ws = roots_jacobi(200, alpha - 0.5, alpha - 0.5)
    integrand = np.exp(1j * x * xs) * (1.0 + xs)
    val = np.sum(ws * integrand)
    const = (1.0 / math.sqrt(math.pi)) * math.gamma(alpha + 1.0) / math.gamma(alpha + 0.5)
    want = const * val
    got = mehler_E(mu, x, 48)
    assert abs(got - want) / (1 + abs(want)) < 1e-9


def test_mehler_E_example5_four_term_integrand():
    # r=3 kernel against the explicit four-term single-integral form; the
    # weight splits as (1-u^3)^(v-1) = (1-u)^(v-1) (1+u+u^2)^(v-1), keeping
    # the integrand analytic against a plain Jacobi rule in u
    v, x = 0.9, 1.0
    mu = rd.IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
    c = rd.CyclicStructure(3)
    theta, omega = c.theta, c.omega
    rule = gauss_jacobi_rule(v - 1.0, 0.0, 80)
    u = rule.nodes
    w = rule.weights * (1.0 + u + u ** 2) ** (v - 1.0)

    def T(k, fn):
        # T_k of a function of x, evaluated at the outer x
        return sum(omega ** (n * k) * fn(omega ** n * x) for n in range(3)) / 3.0

    c_v = 3.0 * math.gamma(v + 2 / 3) / (math.gamma(v) * math.gamma(2 / 3))
    total = 0.0 + 0.0j
    for uu, ww in zip(u, w):
        term = (
            T(0, lambda z: (1.0 / z) * (z * uu) * np.exp(theta * z * uu))
            + T(1, lambda z: (1.0 / z ** 2) * (z * uu) ** 2 * np.exp(theta * z * uu))
            + T(2, lambda z: (1.0 / z ** 3) * (z * uu) ** 3 * np.exp(theta * z * uu))
            + (3.0 * v / theta) * T(2, lambda z: (1.0 / z ** 3) * (z * uu) ** 2 * np.exp(theta * z * uu))
        )
        total += ww * term
    want = c_v * total
    got = mehler_E(mu, x, 64)
    assert abs(got - want) / (1 + abs(want)) < 1e-10


@pytest.mark.parametrize("mu", [rd.IndexVector(2, (0.0, 0.6)), rd.IndexVector(3, (0.2, 0.5, 1.0))])
def test_node_doubling_convergence_trend(mu):
    # doubling the per-dimension node count never inflates the residual by
    # more than 10x across three doublings
    x = 1.7
    want = rd.bessel_j_value(mu, x)
    prev = None
    for n in (6, 12, 24, 48):
        resid = abs(mehler_j(mu, x, n) - want) / (1 + abs(want))
        if prev is not None:
            # the 5e-14 floor keeps roundoff jitter from tripping the trend
            assert resid < 10.0 * prev + 5e-14
        prev = resid


def test_removed_dimension_equivalence():
    # indices with a_i = 0 drop out: the reduced representation still hits
    # the full series
    mu = rd.IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3))  # two removed dims
    assert len(MehlerWeight(mu).included) == 1
    for x in (0.5, 2.0):
        got = mehler_j(mu, x, 48)
        want = rd.bessel_j_value(mu, x)
        assert abs(got - want) / (1 + abs(want)) < 1e-9


def _meshgrid_nodes(mu, n):
    # the full tensor grid as one meshgrid product, factors taken left to right
    weight = MehlerWeight(mu)
    r = mu.r
    rules = [gauss_jacobi_rule(p, q, n) for (p, q) in weight.jacobi_params]
    grids = np.meshgrid(*[rl.nodes for rl in rules], indexing="ij")
    wgrids = np.meshgrid(*[rl.weights for rl in rules], indexing="ij")
    u_ref, w_ref = np.ones_like(grids[0]), np.ones_like(wgrids[0])
    for g, w in zip(grids, wgrids):
        u_ref = u_ref * g ** (1.0 / r)
        w_ref = w_ref * w / r
    return u_ref.ravel(), w_ref.ravel()


R5_FULL = rd.IndexVector(5, (0.3, 0.5, 0.7, 0.9, 1.1))  # five included dimensions


@pytest.mark.parametrize("mu", [
    rd.IndexVector(3, (0.4, 0.9 - 1 / 3, 0.3)),
    rd.IndexVector(4, (0.0, 0.2, 0.5, 0.1)),
    rd.IndexVector(4, (0.4, 0.1, 0.6, 0.3)),
    rd.IndexVector(5, (0.0, 0.5, 0.7, 0.9, 1.1)),
    R5_FULL,
])
@pytest.mark.parametrize("n", [6, 12, 24, 48])
def test_product_rule_moments(mu, n):
    # the rule is Gauss for the distribution of P = prod_i v_i: exact on P^m
    # for m <= 2n - 1, whose moments factor into 1-d Beta moments
    weight = MehlerWeight(mu)
    u, W = weight.product_rule(n)
    assert u.shape == W.shape == (n,)
    P = u ** mu.r
    for m in range(2 * n):
        want = math.prod(jacobi_moment(p, q, m) / mu.r for p, q in weight.jacobi_params)
        assert abs(np.sum(W * P ** m) - want) <= 1e-10 * want


def _tensor_mehler_j(mu, x, n):
    u, w = _meshgrid_nodes(mu, n)
    return MehlerWeight(mu).c_norm * complex(np.sum(w * cos_r_value(mu.cyclic, x * u)))


@pytest.mark.parametrize("mu,n", [
    (rd.IndexVector(2, (0.0, 0.6)), 48),  # one dimension: the Jacobi rule itself
    (rd.IndexVector(2, (0.3, 0.8)), 48),
    (rd.IndexVector(3, (0.0, 0.5, 1.0)), 48),
    (rd.IndexVector(3, (0.2, 0.5, 1.0)), 48),
    (rd.IndexVector(4, (0.0, 0.2, 0.5, 0.1)), 48),
    (rd.IndexVector(4, (0.4, 0.1, 0.6, 0.3)), 24),
    (rd.IndexVector(5, (0.0, 0.5, 0.7, 0.9, 1.1)), 24),
    (R5_FULL, 12),
])
@pytest.mark.parametrize("x", [1.7, -2.1, 5.0, 0.8 + 0.5j])
def test_product_rule_matches_tensor_grid(mu, n, x):
    # the n-point product-variable rule against the full n^dims tensor grid
    want = _tensor_mehler_j(mu, x, n)
    assert abs(mehler_j(mu, x, n) - want) <= 5e-13 * (1 + abs(want))
    want = _mehler_E_loop(mu, x, n)
    assert abs(mehler_E(mu, x, n) - want) <= 5e-13 * (1 + abs(want))


def test_product_rule_cached_and_read_only():
    weight = MehlerWeight(R5_FULL)
    u, W = weight.product_rule(12)
    u2, W2 = MehlerWeight(R5_FULL).product_rule(12)
    assert u2 is u and W2 is W
    assert not u.flags.writeable and not W.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 0.0
    size = mehler._product_reference.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ParameterError):
            weight.product_rule(0)
    assert mehler._product_reference.cache_info().currsize == size


def _mehler_E_loop(mu, x, n):
    # the (k, j, n) loop over the full grid: T_0 e(xu) plus every chain term
    # T_k[x^(-j) u^(k-j) e(xu)] realized by the r-point rotated average
    weight = MehlerWeight(mu)
    u, w = _meshgrid_nodes(mu, n)
    c = mu.cyclic
    r, theta = mu.r, c.theta
    rot = np.array([c.omega_pow(m) for m in range(r)])
    ex = np.exp(theta * np.outer(rot, u) * x)
    total = ex.mean(axis=0)
    for k in range(1, r):
        P = rd.chain_expansion_coeffs(mu.a[:k])
        for j in range(k + 1):
            pieces = np.zeros(u.shape, dtype=complex)
            for m in range(r):
                pieces += rot[m] ** k * (rot[m] * x) ** (-j) * ex[m]
            total = total + (P[j] / theta ** j) * u ** (k - j) * pieces / r
    return weight.c_norm * complex(np.sum(w * total))


@pytest.mark.parametrize("mu", [
    rd.IndexVector(2, (0.0, 0.6)),
    rd.IndexVector(2, (0.3, 0.8)),
    rd.IndexVector(3, (0.2, 0.5, 1.0)),
    rd.IndexVector(4, (0.0, 0.2, 0.5, 0.1)),
    rd.IndexVector(4, (0.4, 0.1, 0.6, 0.3)),
    rd.IndexVector(5, (0.0, 0.5, 0.7, 0.9, 1.1)),
    R5_FULL,
])
@pytest.mark.parametrize("x", [0.4, 1.3, -2.1, 0.8 + 0.5j])
def test_mehler_E_grouped_matches_term_loop(mu, x):
    n = 6
    want = _mehler_E_loop(mu, x, n)
    assert abs(mehler_E(mu, x, n) - want) <= 1e-13 * max(abs(want), 1.0)


def test_mehler_j_memory_bounded():
    # 24^5 = 7,962,624 nodes; the full grid alone would be 127 MB of u and w
    tracemalloc.start()
    try:
        got = mehler_j(R5_FULL, 1.7, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    want = rd.bessel_j_value(R5_FULL, 1.7)
    assert abs(got - want) / (1 + abs(want)) < 1e-12


def test_mehler_E_weight_with_p_plus_q_minus_one_is_quiet():
    # alpha = (0, 0, 0) at r = 3 gives Jacobi weights with p + q = -1, where
    # the uncancelled first recurrence coefficient divides by zero
    import warnings

    from rdunkl.operators import dunkl_kernel_values

    mu = rd.IndexVector(3, (0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mehler_E(mu, 1.3)
    want = complex(dunkl_kernel_values(mu, 1.3))
    assert abs(got - want) < 1e-12 * abs(want)
