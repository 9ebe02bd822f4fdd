import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdunkl as rd
from rdunkl._errors import ParameterError
from rdunkl import operators
from rdunkl.dunkl_opdam import (
    KappaVector,
    NoSolution,
    a_to_kappa,
    apply_T_kappa,
    kappa_to_a,
    reflection_sum,
)
from rdunkl.series import CyclicStructure, LaurentSeries, shifted
from rdunkl.verify import suite_dunkl_opdam
from rdunkl.special import IndexVector


def to_index_vector(a_list, r: int):
    """Build the index vector from real coefficients a_k = r alpha_k + k,
    rejecting nonvanishing imaginary parts."""
    a = np.asarray(a_list, dtype=complex)
    if np.max(np.abs(a.imag)) > 1e-12:
        raise ParameterError("coefficients have nonvanishing imaginary parts")
    alphas = tuple((a[k].real - k) / r for k in range(r))
    return IndexVector(r, alphas)


def test_zero_kappa_is_plain_derivative():
    c = CyclicStructure(3)
    kap = KappaVector(3, (0.0, 0.0))
    f = LaurentSeries(0, np.arange(1.0, 8.0))
    out = apply_T_kappa(kap, f, c)
    want = rd.differentiate(f)
    assert rd.series_residual(out, want) < 1e-15


def test_classical_r2_correspondence():
    # kappa_1 = alpha + 1/2 reproduces the Dunkl operator for (0, alpha)
    alpha = 0.7
    c = CyclicStructure(2)
    kap = KappaVector(2, (alpha + 0.5,))
    a = kappa_to_a(kap, c)
    assert abs(a[0]) < 1e-14 and abs(a[1] - (2 * alpha + 1.0)) < 1e-14
    mu = to_index_vector(a, 2)
    rng = np.random.default_rng(8)
    f = LaurentSeries(0, rng.standard_normal(61) + 1j * rng.standard_normal(61))
    assert rd.series_residual(apply_T_kappa(kap, f, c), rd.apply_D(mu, f)) < 1e-14


def test_reflection_is_involution_r2():
    # tau^2 = id: applying the pure reflection part twice returns the input
    c = CyclicStructure(2)
    f = LaurentSeries(0, np.array([1.0, 2.0, 3.0, 4.0]))
    s1 = rd.s_action(f, 0, c)  # g -> g(omega x)
    s2 = rd.s_action(s1, 0, c)
    assert rd.series_residual(s2, f) < 1e-15


def test_round_trip_and_obstruction():
    c = CyclicStructure(2)
    a = kappa_to_a(KappaVector(2, (1.5,)), c)
    back = a_to_kappa(a, c)
    assert isinstance(back, KappaVector)
    assert abs(back.kappas[0] - 1.5) < 1e-13
    res = a_to_kappa([1.0, 0.0], c)
    assert isinstance(res, NoSolution)
    assert abs(res.residual - 0.5) < 1e-14


def test_obstruction_is_least_squares_floor():
    # brute force: no kappa comes closer than |a_0|/r in the defining system
    r = 3
    c = CyclicStructure(r)
    a = np.array([0.9, 1.3, -0.4])
    res = a_to_kappa(list(a), c)
    assert isinstance(res, NoSolution)
    rng = np.random.default_rng(0)
    t = np.arange(r)
    best = np.inf
    for _ in range(4000):
        kap = rng.standard_normal(r - 1) + 1j * rng.standard_normal(r - 1)
        worst = 0.0
        for s in range(r):
            lhs = np.sum(a * np.exp(2j * np.pi * s * t / r)) / r
            rhs = sum(kap[tt - 1] * np.exp(-2j * np.pi * s * tt / r) for tt in range(1, r))
            worst = max(worst, abs(lhs - rhs))
        best = min(best, worst)
    assert best > res.residual * 0.5  # the scalar is a genuine floor


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_kappa_round_trip_property(r, seed):
    rng = np.random.default_rng(seed)
    c = CyclicStructure(r)
    kap = KappaVector(r, tuple(rng.standard_normal(r - 1) + 1j * rng.standard_normal(r - 1)))
    a = kappa_to_a(kap, c)
    assert abs(a[0]) < 1e-12
    back = a_to_kappa(a, c)
    assert isinstance(back, KappaVector)
    assert max(abs(x - y) for x, y in zip(kap.kappas, back.kappas)) < 1e-13


@pytest.mark.parametrize("r", [2, 3, 5])
def test_operator_equality_on_consistent_slice(r):
    c = CyclicStructure(r)
    rng = np.random.default_rng(40 + r)
    alphas = [0.0] + [float(rng.uniform(0.1, 2.0)) for _ in range(r - 1)]
    mu = rd.IndexVector(r, tuple(alphas))
    kap = a_to_kappa(list(mu.a), c)
    assert isinstance(kap, KappaVector)
    f = LaurentSeries(0, rng.standard_normal(61) + 1j * rng.standard_normal(61))
    assert rd.series_residual(apply_T_kappa(kap, f, c), rd.apply_D(mu, f)) < 1e-12


def test_generalization_boundary():
    # any a with a_0 != 0 falls outside the representable family
    c = CyclicStructure(4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = [float(rng.uniform(0.2, 2.0))] + list(rng.standard_normal(3))
        assert isinstance(a_to_kappa(a, c), NoSolution)


def test_to_index_vector_rejects_complex():
    with pytest.raises(ParameterError):
        to_index_vector([0.0, 1.0 + 0.5j], 2)


def test_kappa_vector_length_check():
    with pytest.raises(ParameterError):
        KappaVector(3, (1.0,))


# -- the correspondence is an index reversal -------------------------------------

_finite = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(_finite, min_size=r - 1, max_size=r - 1))))
def test_kappa_to_a_is_the_scaled_index_reversal(case):
    r, kappas = case
    a = kappa_to_a(KappaVector(r, tuple(kappas)), CyclicStructure(r))
    # a_0 = 0 and a_t = r kappa_{r-t}, each the correctly rounded product
    assert a == [0j] + [r * complex(kappas[r - t - 1]) for t in range(1, r)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(_finite, min_size=r - 1, max_size=r - 1))))
def test_a_to_kappa_is_the_scaled_index_reversal(case):
    r, tail = case
    back = a_to_kappa([0.0] + tail, CyclicStructure(r))
    assert isinstance(back, KappaVector)
    # kappa_t = a_{r-t} / r, each the correctly rounded quotient
    assert list(back.kappas) == [complex(tail[r - t - 1]) / r for t in range(1, r)]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_T_kappa_matches_the_reflection_sum(r):
    rng = np.random.default_rng(70 + r)
    c = CyclicStructure(r)
    kap = KappaVector(r, tuple(rng.standard_normal(r - 1) + 1j * rng.standard_normal(r - 1)))
    f = LaurentSeries(-r, rng.standard_normal(80) + 1j * rng.standard_normal(80))
    assert rd.series_residual(apply_T_kappa(kap, f, c), reflection_sum(kap, f, c)) < 1e-13


def test_non_finite_values_are_refused():
    c = CyclicStructure(3)
    for bad in (float("nan"), float("inf"), complex(0.0, -float("inf"))):
        with pytest.raises(ParameterError):
            KappaVector(3, (1.0, bad))
        for a in ([0.0, bad, 1.0], [bad, 0.0, 1.0]):
            with pytest.raises(ParameterError):
                a_to_kappa(a, c)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_operator_equality_is_not_circular(r, monkeypatch):
    # the oracle shares no arithmetic with D's weighted shift: moving one of
    # the shift's weights by 1e-9 fails operator_equality, while the
    # parameter round trip, which never applies an operator, still passes
    def nudged(a, f):
        degs = f.degrees
        weights = degs + np.asarray(a)[(-degs) % len(a)]
        weights[np.argmax(np.abs(f.coeffs))] += 1e-9
        return shifted(f, f.coeffs * weights, -1)

    def reports():
        return {rep.check_id: rep for rep in suite_dunkl_opdam(r, 0, 48, 60)}

    assert reports()["dunkl_opdam.operator_equality"].passed
    monkeypatch.setattr(operators, "_dunkl_shift", nudged)
    patched = reports()
    assert not patched["dunkl_opdam.operator_equality"].passed
    assert patched["dunkl_opdam.kappa_round_trip"].passed
