import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdunkl as rd
from rdunkl._errors import DomainError, ParameterError
from rdunkl.dunkl_opdam import KappaVector, apply_T_kappa
from rdunkl.riemann_liouville import apply_R_inverse_series, apply_R_series
from rdunkl.series import GRADE_ZERO_TOL, add, lincomb, shifted, zero_series


def random_series(rng, n_min=-3, n_max=25):
    coeffs = rng.standard_normal(n_max - n_min + 1) + 1j * rng.standard_normal(n_max - n_min + 1)
    return rd.LaurentSeries(n_min, coeffs)


def test_cyclic_structure_roots():
    for r in range(2, 9):
        c = rd.CyclicStructure(r)
        assert abs(c.omega - c.theta ** 2) < 1e-15
        assert abs(abs(c.omega) - 1.0) < 1e-15
        assert abs(abs(c.theta) - 1.0) < 1e-15
        assert abs(c.omega ** r - 1.0) < 1e-14
        assert abs(c.theta ** r + 1.0) < 1e-14


def test_cyclic_structure_rejects_r1():
    with pytest.raises(ParameterError):
        rd.CyclicStructure(1)


def test_s_action_fixes_odd_monomial_r2():
    # s_1 x = omega^(1+1) x = x, so x sits in grade 1
    c = rd.CyclicStructure(2)
    x = rd.monomial(1)
    out = rd.s_action(x, 1, c)
    assert abs(out[1] - 1.0) < 1e-15


def test_s_action_identity_on_constants():
    for r in (2, 3, 5):
        c = rd.CyclicStructure(r)
        one = rd.monomial(0)
        assert abs(rd.s_action(one, 0, c)[0] - 1.0) < 1e-15


def test_s_action_fixes_x2_r3():
    # 2 = -1 mod 3, so x^2 is s_1-invariant
    c = rd.CyclicStructure(3)
    out = rd.s_action(rd.monomial(2), 1, c)
    assert abs(out[2] - 1.0) < 1e-14


def test_projector_on_monomials():
    c = rd.CyclicStructure(2)
    x3 = rd.monomial(3)
    assert abs(rd.project_T(x3, 1, c)[3] - 1.0) == 0.0
    assert rd.project_T(x3, 0, c)[3] == 0.0
    c3 = rd.CyclicStructure(3)
    assert abs(rd.project_T(rd.monomial(2), 1, c3)[2] - 1.0) == 0.0


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_projector_completeness_idempotence_annihilation(r):
    rng = np.random.default_rng(7 + r)
    c = rd.CyclicStructure(r)
    f = random_series(rng)
    total = zero_series(f.n_min, f.n_max)
    for k in range(r):
        pk = rd.project_T(f, k, c)
        total = add(total, pk)
        assert rd.series_residual(rd.project_T(pk, k, c), pk) == 0.0
        for l in range(r):
            if l != k:
                both = rd.project_T(pk, l, c)
                assert np.max(np.abs(both.coeffs)) == 0.0
    assert rd.series_residual(total, f) < 1e-15


@pytest.mark.parametrize("r,k", [(2, 0), (2, 1), (3, 1), (3, 2), (5, 3)])
def test_projector_commutes_with_action(r, k):
    rng = np.random.default_rng(40 + r + k)
    c = rd.CyclicStructure(r)
    f = random_series(rng)
    lhs = rd.project_T(rd.s_action(f, k, c), k, c)
    rhs = rd.s_action(rd.project_T(f, k, c), k, c)
    assert rd.series_residual(lhs, rhs) < 1e-15


@pytest.mark.parametrize("r,k", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_projector_shift_law(r, k):
    # projecting after a 1/x shift equals shifting the (k)-projection, with
    # the grade stepping to k+1
    rng = np.random.default_rng(11 * r + k)
    c = rd.CyclicStructure(r)
    f = random_series(rng)
    lhs = rd.project_T(rd.mul_x_power(f, -1), k + 1, c)
    rhs = rd.mul_x_power(rd.project_T(f, k, c), -1)
    assert rd.series_residual(lhs, rhs) < 1e-15


def test_differentiate_basics():
    assert rd.differentiate(rd.monomial(3))[2] == 3.0
    d1 = rd.differentiate(rd.monomial(0))
    assert all(abs(d1[n]) == 0.0 for n in d1.degrees)
    dm = rd.differentiate(rd.monomial(-1))
    assert dm[-2] == -1.0


def test_mul_x_power_basics():
    assert rd.mul_x_power(rd.monomial(3), -1)[2] == 1.0
    assert rd.mul_x_power(rd.monomial(0), 2)[2] == 1.0
    m = rd.mul_x_power(rd.monomial(0), -1)
    assert m[-1] == 1.0 and m.n_min == -1


def test_evaluate_against_exponential():
    f = rd.exp_series(1.0, 30)
    assert abs(rd.evaluate(f, 1.0) - np.exp(1.0)) < 1e-14


def test_evaluate_constant_and_principal():
    assert rd.evaluate(rd.monomial(0), 17.3) == 17.3 * 0 + 1.0
    assert abs(rd.evaluate(rd.monomial(-1), 2.0) - 0.5) < 1e-15
    # a positive lowest degree keeps its factor x^n_min
    assert rd.evaluate(rd.monomial(2), 3.0) == 9.0
    assert rd.evaluate(rd.mul_x_power(rd.LaurentSeries(0, np.array([1.0, 1.0])), 1), 2.0) == 6.0


def test_scale_argument_by_zero_is_the_constant_term():
    mu = rd.IndexVector(3, (0.0, 0.5, 0.25))
    j = rd.bessel_j_series(mu, 5)
    z = rd.scale_argument(j, 0)
    assert (z.n_min, z.valid_order) == (0, j.valid_order)
    assert z[0] == j[0] and not np.any(z.coeffs[1:])
    with pytest.raises(DomainError):
        rd.scale_argument(rd.monomial(-1), 0)


def test_evaluate_principal_at_zero_raises():
    with pytest.raises(DomainError):
        rd.evaluate(rd.monomial(-1), 0.0)


def test_grade_tag_validation():
    c = rd.CyclicStructure(3)
    good = rd.project_T(rd.monomial(2), 1, c)
    assert good.grade == 1
    with pytest.raises(ParameterError):
        rd.LaurentSeries(0, np.array([1.0, 1.0]), grade=0, r=3)


def _grade_verdict_by_mask(n_min, coeffs, grade, r):
    """Oracle: the grade tag's message from a mask over every stored degree,
    or None when the tag is consistent."""
    mags = np.abs(coeffs)
    scale = np.max(mags)
    if scale == 0.0:
        return None
    degs = np.arange(n_min, n_min + len(coeffs))
    bad = degs[((degs + grade) % r != 0) & (mags > GRADE_ZERO_TOL * scale)]
    if bad.size:
        return f"grade {grade} tag inconsistent with support at degrees {bad[:4].tolist()}"
    return None


def test_grade_check_matches_the_mask_over_every_degree():
    rng = np.random.default_rng(20261021)
    raised = 0
    for case in range(6000):
        r = int(rng.integers(2, 8))
        n_min, size = int(rng.integers(-8, 5)), int(rng.integers(1, 40))
        grade = int(rng.integers(-3, 10))
        degs = np.arange(n_min, n_min + size)
        on = (degs + grade) % r == 0
        c = np.zeros(size, dtype=complex)
        c[on] = rng.standard_normal(on.sum()) + 1j * rng.standard_normal(on.sum())
        kind = case % 6
        off = np.flatnonzero(~on)
        if kind == 1:
            c[:] = 0.0
        elif kind == 2:
            c[rng.integers(0, size)] = np.nan
        elif kind in (3, 4) and off.size and np.any(c):
            # an off-grade entry exactly at the threshold, or just above it
            limit = GRADE_ZERO_TOL * np.max(np.abs(c))
            c[rng.choice(off)] = limit if kind == 3 else np.nextafter(limit, 1.0)
        elif kind == 5 and off.size:
            c[off] = 1e-3 * rng.standard_normal(off.size)
        want = _grade_verdict_by_mask(n_min, c, grade, r)
        try:
            rd.LaurentSeries(n_min, c, grade=grade, r=r)
            got = None
        except ParameterError as exc:
            got = str(exc)
        assert got == want, (n_min, c, grade, r)
        raised += want is not None
    assert 1000 < raised < 5000


def test_valid_order_clamps_comparisons():
    a = rd.LaurentSeries(0, np.array([1.0, 2.0, 3.0]), valid_order=1)
    b = rd.LaurentSeries(0, np.array([1.0, 2.0, 99.0]), valid_order=2)
    assert rd.series_residual(a, b) == 0.0


def _series_residual_loop(f, g, from_degree=None):
    # the per-degree loop over __getitem__, with Python's abs(complex)
    top = min(f.valid_order, g.valid_order)
    lo = min(f.n_min, g.n_min)
    if from_degree is not None:
        lo = max(lo, from_degree)
    if top < lo:
        raise ParameterError("series share no trustworthy degrees")
    diffs = [abs(f[n] - g[n]) for n in range(lo, top + 1)]
    scale = max(
        max((abs(f[n]) for n in range(lo, top + 1)), default=0.0),
        max((abs(g[n]) for n in range(lo, top + 1)), default=0.0),
        1e-300,
    )
    return max(diffs) / scale


@pytest.mark.parametrize("f_range,g_range,valid,from_degree", [
    ((0, 20), (0, 20), None, None),
    ((0, 20), (3, 30), None, None),        # offset, g longer
    ((-3, 12), (0, 25), 10, None),         # principal part on one side, clamped top
    ((-4, 15), (-2, 15), None, None),      # principal parts on both sides
    ((-3, 20), (-1, 18), None, 0),         # regular part only
    ((-3, 20), (2, 18), 15, 5),            # from_degree inside both ranges
    ((5, 9), (12, 20), 20, None),          # disjoint stored ranges
])
def test_series_residual_equals_loop(f_range, g_range, valid, from_degree):
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_series(rng, *f_range)
        g = random_series(rng, *g_range)
        if valid is not None:
            g = rd.LaurentSeries(g.n_min, g.coeffs, min(valid, g.n_max))
        got = rd.series_residual(f, g, from_degree)
        assert type(got) is float
        assert got == _series_residual_loop(f, g, from_degree)
    zero = zero_series(0, 10)
    assert rd.series_residual(zero, zero) == _series_residual_loop(zero, zero) == 0.0


def test_series_residual_rejects_empty_range():
    f = random_series(np.random.default_rng(1), 0, 5)
    for args in [(f, rd.LaurentSeries(0, np.ones(3), valid_order=-1)),  # top below lo
                 (f, f, 6)]:                                             # from_degree above top
        with pytest.raises(ParameterError):
            rd.series_residual(*args)
        with pytest.raises(ParameterError):
            _series_residual_loop(*args)


def test_json_round_trip():
    f = rd.LaurentSeries(-2, np.array([1 + 2j, 0.5, -3j, 4.0]))
    blob = json.dumps(rd.series_to_json(f))
    g = rd.series_from_json(json.loads(blob))
    assert g.n_min == f.n_min
    assert np.allclose(g.coeffs, f.coeffs)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=1000),
)
def test_projection_sum_is_identity_property(r, seed):
    rng = np.random.default_rng(seed)
    c = rd.CyclicStructure(r)
    f = random_series(rng, n_min=-2, n_max=18)
    total = zero_series(f.n_min, f.n_max)
    for k in range(r):
        total = add(total, rd.project_T(f, k, c))
    assert rd.series_residual(total, f) < 1e-15


def test_omega_pow_equals_its_expression_bit_for_bit():
    for r in range(2, 8):
        c = rd.CyclicStructure(r)
        for k in range(-3 * r, 3 * r + 1):
            want = complex(np.exp(2j * np.pi * (k % r) / r))
            got = c.omega_pow(k)
            assert type(got) is complex
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


# -- the shift rule: every weighted shift or diagonal moves n_min, the
# watermark and the grade tag the same way (series.shifted) -----------------

_C3 = rd.CyclicStructure(3)
_MU3 = rd.IndexVector(3, (0.0, 0.5666666666666667, -0.6666666666666666))

#: (name, operator, degree shift)
SHIFT_OPERATORS = [
    ("s_action", lambda f: rd.s_action(f, 1, _C3), 0),
    ("differentiate", rd.differentiate, -1),
    ("mul_x_power+2", lambda f: rd.mul_x_power(f, 2), 2),
    ("mul_x_power-1", lambda f: rd.mul_x_power(f, -1), -1),
    ("scale_argument", lambda f: rd.scale_argument(f, 0.7 + 0.2j), 0),
    ("lincomb", lambda f: lincomb([(2.5 - 1j, f)]), 0),
    ("apply_L", lambda f: rd.apply_L(f, 0.4), -1),
    ("apply_D", lambda f: rd.apply_D(_MU3, f), -1),
    ("apply_R_series", lambda f: apply_R_series(0.7, f, 3), 0),
    ("apply_R_inverse_series", lambda f: apply_R_inverse_series(0.7, f, 3), 0),
    ("apply_T_kappa", lambda f: apply_T_kappa(KappaVector(3, (0.3, -0.2j)), f, _C3), -1),
]


@pytest.mark.parametrize("tag", [None, 0, 1, 2])
@pytest.mark.parametrize("op, by", [(op, by) for _, op, by in SHIFT_OPERATORS],
                         ids=[name for name, _, _ in SHIFT_OPERATORS])
def test_operators_follow_the_shift_rule(op, by, tag):
    rng = np.random.default_rng(7)
    f = rd.LaurentSeries(0, rng.standard_normal(13) + 1j * rng.standard_normal(13), 10)
    if tag is not None:
        f = rd.project_T(f, tag, _C3)
    out = op(f)
    assert (out.n_min, out.n_max, out.valid_order) == (f.n_min + by, f.n_max + by,
                                                       f.valid_order + by)
    if tag is None:
        assert out.grade is None
    else:
        assert (out.grade, out.r) == ((tag - by) % 3, 3)
        # the grade check accepts the result
        rd.LaurentSeries(out.n_min, out.coeffs, out.valid_order, out.grade, out.r)


def test_T_kappa_carries_the_grade_tag_like_the_dunkl_operator():
    f = rd.project_T(rd.LaurentSeries(0, np.arange(1.0, 13.0)), 1, _C3)
    out = apply_T_kappa(KappaVector(3, (0.3, -0.2j)), f, _C3)
    assert out.grade == rd.apply_D(_MU3, f).grade == 2


def test_shifted_moves_degrees_watermark_and_tag_together():
    f = rd.project_T(rd.LaurentSeries(-2, np.ones(9), 4), 2, _C3)
    g = shifted(f, 3.0 * f.coeffs, -4)
    assert (g.n_min, g.valid_order, g.grade, g.r) == (-6, 0, 0, 3)
    assert np.array_equal(g.coeffs, 3.0 * f.coeffs)
    h = shifted(rd.LaurentSeries(1, np.ones(4)), np.zeros(4))
    assert (h.n_min, h.valid_order, h.grade) == (1, 4, None)


def test_degrees_is_the_integer_array_of_stored_degrees():
    degs = rd.LaurentSeries(-3, np.ones(7)).degrees
    assert isinstance(degs, np.ndarray) and degs.dtype.kind == "i"
    assert degs.tolist() == [-3, -2, -1, 0, 1, 2, 3]
