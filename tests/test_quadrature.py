import numpy as np
import pytest
from scipy.special import roots_jacobi

from rdunkl._errors import ParameterError
from rdunkl.quadrature import gauss_jacobi_rule, gauss_legendre_rule

JACOBI_KEYS = [(0.0, 0.0, 1), (0.0, 0.5, 16), (-0.4, 1.7, 48), (2.3, -0.9, 200)]
LEGENDRE_CASES = [(1, 0.0, 1.0), (12, -1.0, 1.0), (48, 2.0, 8.0), (400, 0.0, 60.0)]


@pytest.mark.parametrize("p,q,n", JACOBI_KEYS)
def test_jacobi_rule_equals_uncached_formula(p, q, n):
    x, w = roots_jacobi(n, p, q)
    rule = gauss_jacobi_rule(p, q, n)
    assert np.array_equal(rule.nodes, 0.5 * (x + 1.0))
    assert np.array_equal(rule.weights, w / 2.0 ** (p + q + 1.0))
    assert rule.kind == f"gauss_jacobi({p},{q})"


@pytest.mark.parametrize("n,a,b", LEGENDRE_CASES)
def test_legendre_rule_equals_uncached_formula(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    rule = gauss_legendre_rule(n, a, b)
    assert np.array_equal(rule.nodes, 0.5 * (b - a) * (x + 1.0) + a)
    assert np.array_equal(rule.weights, 0.5 * (b - a) * w)


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
