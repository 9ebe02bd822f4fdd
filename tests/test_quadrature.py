import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from rdunkl._errors import ParameterError
from rdunkl.quadrature import (_golub_welsch, _jacobi_reference, _legendre_reference,
                               gauss_jacobi_rule, gauss_legendre_rule)

JACOBI_KEYS = [(0.0, 0.0, 1), (0.0, 0.5, 16), (-0.4, 1.7, 48), (2.3, -0.9, 200)]
LEGENDRE_CASES = [(1, 0.0, 1.0), (12, -1.0, 1.0), (48, 2.0, 8.0), (400, 0.0, 60.0)]


@pytest.mark.parametrize("p,q,n", JACOBI_KEYS)
def test_jacobi_rule_equals_uncached_formula(p, q, n):
    x, w = _jacobi_reference.__wrapped__(float(p), float(q), n)
    rule = gauss_jacobi_rule(p, q, n)
    assert np.array_equal(rule.nodes, x)
    assert np.array_equal(rule.weights, w)
    assert rule.kind == f"gauss_jacobi({p},{q})"


# p + q = 0 and -1, and within one rounding of them: 0.6666666666666665 and
# -0.6666666666666666 are the r = 3, alpha_2 = 1 Mehler parameters
# alpha_2 + 2/3 - 1 and -2/3, whose sum is -1.1e-16
JACOBI_EDGE_PARAMS = [
    (0.0, 0.0), (0.5, -0.5), (-0.5, -0.5), (-0.25, -0.75),
    (0.6666666666666665, -0.6666666666666666),
    (-0.3, float(np.nextafter(-0.7, -1.0))), (-0.3, float(np.nextafter(-0.7, 0.0))),
    (-0.9, 2.3), (-0.99, -0.99),
]


def _jacobi_integral(moment_coeffs, p, q):
    # integral_0^1 f(v) (1-v)^p v^q dv = sum_m f_m B(q + m + 1, p + 1) for
    # f = sum_m f_m v^m, with p and q converted to mpf exactly
    p, q = mp.mpf(p), mp.mpf(q)
    return mp.fsum(f_m * mp.beta(q + m + 1, p + 1) for m, f_m in moment_coeffs)


@pytest.mark.parametrize("p,q", JACOBI_EDGE_PARAMS)
@pytest.mark.parametrize("n", [1, 2, 48, 96, 192, 384])
def test_jacobi_rule_against_mpmath(p, q, n):
    x, w = _jacobi_reference.__wrapped__(p, q, n)
    assert x.shape == w.shape == (n,)
    assert np.all((x > 0.0) & (x < 1.0)) and np.all(w > 0.0)
    with mp.workdps(30):
        if n <= 2:
            # exact on v^m for m <= 2n - 1: the sum 1 + v + ... + v^(2n-1)
            fx = sum(x ** m for m in range(2 * n))
            moments = [(m, 1) for m in range(2 * n)]
        else:
            # cos(5 v) = sum_k (-25)^k v^(2k) / (2k)!, the terms past k = 60 below 1e-110
            fx = np.cos(5.0 * x)
            moments = [(2 * k, mp.mpf(-25) ** k / mp.factorial(2 * k)) for k in range(61)]
        want = _jacobi_integral(moments, p, q)
    assert abs(float(np.sum(w * fx)) - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("n,a,b", LEGENDRE_CASES)
def test_legendre_rule_equals_uncached_formula(n, a, b):
    x, w = _legendre_reference.__wrapped__(n)
    rule = gauss_legendre_rule(n, a, b)
    assert np.array_equal(rule.nodes, 0.5 * (b - a) * (x + 1.0) + a)
    assert np.array_equal(rule.weights, 0.5 * (b - a) * w)


def _mp_legendre_node(n, x0):
    """The node of P_n next to the double x0 and its weight, by Newton's
    method on the recurrence at the working precision."""
    def p_and_derivative(x):
        p0, p1 = mp.mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (p0 - x * p1) / (1 - x * x)

    x = mp.mpf(x0)
    for _ in range(6):
        p, dp = p_and_derivative(x)
        x -= p / dp
    _, dp = p_and_derivative(x)
    return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 48, 200, 600, 1000])
def test_legendre_rule_against_mpmath(n):
    x, w = _legendre_reference.__wrapped__(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 4e-15
    # every node up to 48, else the five at each end and the middle one
    idx = range(n) if n <= 48 else sorted({*range(5), n // 2, *range(n - 5, n)})
    weight_tol = 5e-12 if n <= 600 else 5e-11
    with mp.workdps(40):
        for i in idx:
            xt, wt = _mp_legendre_node(n, x[i])
            assert abs(x[i] - xt) <= 2e-16
            assert abs((w[i] - wt) / wt) <= weight_tol


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 31, 48, 60])
def test_legendre_rule_integrates_monomials_exactly(n):
    x, w = _legendre_reference.__wrapped__(n)
    for k in range(2 * n):
        assert abs(np.sum(w * x ** k) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 5, 48, 200, 240, 300, 400, 600])
def test_legendre_rule_agrees_with_the_companion_eigensolver(n):
    x, w = _legendre_reference.__wrapped__(n)
    xs, ws = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xs)) <= 1e-15
    assert np.max(np.abs(w / ws - 1.0)) <= 1e-9


def test_large_legendre_rule_needs_no_dense_matrix():
    # verify transform --nodes 1000 asks for a 5000-node rule; a companion
    # eigensolver would allocate 200 MB for it
    tracemalloc.start()
    try:
        x, w = _legendre_reference.__wrapped__(5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert np.all(np.diff(x) > 0.0) and abs(np.sum(w) - 2.0) <= 1e-13


def test_legendre_rows_match_scalar_intervals():
    lo = np.array([[0.1], [0.75], [2.0]])
    rows = gauss_legendre_rule(24, lo, 8.0)
    assert rows.nodes.shape == rows.weights.shape == (3, 24)
    for i, a in enumerate(lo[:, 0]):
        one = gauss_legendre_rule(24, float(a), 8.0)
        assert np.array_equal(rows.nodes[i], one.nodes)
        assert np.array_equal(rows.weights[i], one.weights)


def test_repeat_call_shares_arrays():
    first = gauss_jacobi_rule(0.3, -0.4, 12)
    again = gauss_jacobi_rule(0.3, -0.4, 12)
    assert again.nodes is first.nodes and again.weights is first.weights


def test_int_and_float_keys_share_one_entry():
    as_int = gauss_jacobi_rule(0, 0.5, 16)
    as_float = gauss_jacobi_rule(0.0, 0.5, np.int64(16))
    assert as_float.nodes is as_int.nodes and as_float.weights is as_int.weights


def test_cached_arrays_are_read_only():
    rule = gauss_jacobi_rule(0.2, 0.1, 8)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.5
    with pytest.raises(ValueError):
        rule.weights *= 2.0
    assert np.array_equal(gauss_jacobi_rule(0.2, 0.1, 8).nodes, rule.nodes)


@pytest.mark.parametrize("call", [
    lambda: gauss_jacobi_rule(-1.0, 0.0, 8),
    lambda: gauss_jacobi_rule(0.0, -1.5, 8),
    lambda: gauss_jacobi_rule(0.0, 0.0, 0),
    lambda: gauss_legendre_rule(0),
    lambda: gauss_legendre_rule(-3, 0.0, 2.0),
])
def test_invalid_parameters_raise_every_time(call):
    for _ in range(2):  # errors are never cached
        with pytest.raises(ParameterError):
            call()


@pytest.mark.parametrize("n", [5, 48, 96, 192])
def test_golub_welsch_from_the_lower_triangle_equals_the_full_matrix(n):
    # eigh reads only the lower triangle; the Jacobi rules and the Mehler
    # product rule build only that
    rng = np.random.default_rng(n)
    diag, off = rng.standard_normal(n), rng.random(n - 1) + 0.1
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    x, w = _golub_welsch(diag, off, 2.5)
    assert np.array_equal(x, nodes)
    assert np.array_equal(w, 2.5 * vecs[0] ** 2)
