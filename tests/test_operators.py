import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdunkl as rd
from rdunkl._errors import DomainError, ParameterError, SeriesOverflowError
from rdunkl.operators import (
    apply_L_chain,
    chain_expansion_closed_form,
    power_identity_residual,
    v_terms,
)
from rdunkl.series import (
    CyclicStructure,
    LaurentSeries,
    differentiate,
    kernel_log_peak,
    kernel_series_degree,
    lincomb,
    monomial,
    mul_x_power,
    project_T,
    series_residual,
)
from rdunkl.special import IndexVector


def apply_D_compositional(mu: IndexVector, f: LaurentSeries, c: CyclicStructure | None = None) -> LaurentSeries:
    """Oracle form f' + (1/x) sum_k a_k T_k f, assembled from the primitive
    series operations."""
    c = c or mu.cyclic
    terms = [(1.0, differentiate(f))]
    for k in range(mu.r):
        if mu.a[k] != 0.0:
            terms.append((mu.a[k], mul_x_power(project_T(f, k, c), -1)))
    out = lincomb(terms)
    # lincomb keeps the min valid_order; differentiate already dropped it by 1
    return out


def test_lowering_operator_on_monomials():
    assert rd.apply_L(monomial(3), 0.0)[2] == 3.0
    assert rd.apply_L(monomial(3), 2.0)[2] == 5.0  # 3x^2 + 2x^3/x
    out = rd.apply_L(monomial(0), 1.5)
    assert out[-1] == 1.5  # f' = 0 plus a/x


def test_bessel_operator_r2_classical():
    # x^{2n} -> 2n(2n+2alpha) x^{2n-2}
    alpha = 0.8
    mu = rd.IndexVector(2, (0.0, alpha))
    for n in (1, 2, 5):
        out = rd.apply_Delta(mu, monomial(2 * n))
        assert abs(out[2 * n - 2] - 2 * n * (2 * n + 2 * alpha)) < 1e-12


@pytest.mark.parametrize("r", [2, 3, 4])
def test_bessel_operator_monomial_rule(r):
    # Delta x^(rn) = r^r (alpha_0+n)...(alpha_{r-1}+n) x^((n-1)r)
    rng = np.random.default_rng(5 + r)
    alphas = tuple(rng.uniform(0.1, 2.0, r))
    mu = rd.IndexVector(r, alphas)
    for n in (1, 2, 4):
        out = rd.apply_Delta(mu, monomial(r * n))
        want = float(r) ** r
        for al in alphas:
            want *= al + n
        assert abs(out[(n - 1) * r] - want) / abs(want) < 1e-14


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_bessel_operator_degenerate_is_pure_derivative(r):
    mu = rd.IndexVector(r, tuple(-k / r for k in range(r)))
    out = rd.apply_Delta(mu, monomial(5, n_max=6))
    want = rd.differentiate(monomial(5, n_max=6))
    for _ in range(r - 1):
        want = rd.differentiate(want)
    assert rd.series_residual(out, want) < 1e-15


def test_dunkl_operator_on_monomials():
    mu = rd.IndexVector(2, (0.0, 1.0))  # a = (0, 3)
    assert rd.apply_D(mu, monomial(3))[2] == 6.0
    out = rd.apply_D(mu, monomial(0))
    assert all(out[n] == 0.0 for n in out.degrees)  # a_0 = 0 kills constants


def test_dunkl_classical_r2_split():
    # D = d/dx + ((2alpha+1)/x) T_1 on even and odd monomials
    alpha = 0.6
    mu = rd.IndexVector(2, (0.0, alpha))
    even = rd.apply_D(mu, monomial(4))
    assert abs(even[3] - 4.0) < 1e-15
    odd = rd.apply_D(mu, monomial(5))
    assert abs(odd[4] - (5.0 + 2 * alpha + 1)) < 1e-15


@pytest.mark.parametrize("r", [2, 3, 5])
def test_dunkl_closed_shift_matches_compositional_oracle(r):
    rng = np.random.default_rng(100 + r)
    alphas = tuple(rng.uniform(0.05, 2.0, r))
    mu = rd.IndexVector(r, alphas)
    coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    f = rd.LaurentSeries(-2, coeffs)
    assert rd.series_residual(rd.apply_D(mu, f), apply_D_compositional(mu, f)) < 1e-14


def test_grading_transport_of_lowering():
    c = rd.CyclicStructure(3)
    f = rd.project_T(rd.exp_series(1.0, 20), 1, c)
    out = rd.apply_L(f, 2.5)
    assert out.grade == 2


@pytest.mark.parametrize("r", [2, 3, 4])
def test_bessel_operator_commutes_with_projectors(r):
    rng = np.random.default_rng(900 + r)
    c = rd.CyclicStructure(r)
    alphas = tuple(rng.uniform(0.05, 2.0, r))
    mu = rd.IndexVector(r, alphas)
    f = rd.LaurentSeries(0, rng.standard_normal(40) + 1j * rng.standard_normal(40))
    for k in range(r):
        lhs = rd.apply_Delta(mu, rd.project_T(f, k, c))
        rhs = rd.project_T(rd.apply_Delta(mu, f), k, c)
        assert rd.series_residual(lhs, rhs) < 1e-13


def test_kernel_series_normalization_and_degenerate():
    # constant term 1 when alpha_0 = 0
    mu = rd.IndexVector(3, (0.0, 0.4, 0.9))
    E = rd.dunkl_kernel_series(mu, 1.0, 40)
    assert abs(E[0] - 1.0) < 1e-15
    # fully degenerate index collapses the kernel to exp(theta x)
    for r in (2, 3, 4):
        c = rd.CyclicStructure(r)
        mud = rd.IndexVector(r, tuple(-k / r for k in range(r)))
        E = rd.dunkl_kernel_series(mud, 1.0, 40)
        assert rd.series_residual(E, rd.exp_series(c.theta, 40)) < 1e-14


def test_kernel_matches_classical_combination_r2():
    # j + (1/i) D j for the classical index
    mu = rd.IndexVector(2, (0.0, 0.7))
    j = rd.bessel_j_series(mu, 40)
    E = rd.dunkl_kernel_series(mu, 1.0, 40)
    manual = rd.series_residual(
        E,
        rd.LaurentSeries(
            *_combine(j, rd.apply_D(mu, j), 1.0, 1.0 / 1j)
        ),
    )
    assert manual < 1e-15


def _combine(f, g, wf, wg):
    from rdunkl.series import lincomb

    out = lincomb([(wf, f), (wg, g)])
    return out.n_min, out.coeffs, out.valid_order


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_kernel_eigen_property(r):
    rng = np.random.default_rng(50 + r)
    for _ in range(3):
        alphas = (0.0,) + tuple(rng.uniform(0.05, 2.0, r - 1))
        mu = rd.IndexVector(r, alphas)
        c = rd.CyclicStructure(r)
        for lam in (1.0, 0.7 + 0.4j):
            E = rd.dunkl_kernel_series(mu, lam, 50)
            lhs = rd.apply_D(mu, E)
            rhs = rd.LaurentSeries(E.n_min, c.theta * lam * E.coeffs, E.valid_order)
            assert rd.series_residual(lhs, rhs) < 1e-12


def test_kernel_point_values_match_series():
    from rdunkl.operators import dunkl_kernel_values

    mu = rd.IndexVector(3, (0.0, 0.5, 0.9))
    z = np.array([0.4, 1.5 + 0.3j, 3.0])
    got = dunkl_kernel_values(mu, z)
    ser = rd.dunkl_kernel_series(mu, 1.0, 70)
    want = rd.evaluate(ser, z)
    assert np.max(np.abs(got - want)) < 1e-12


def _d_chain_kernel_series(mu, lam, N):
    """Oracle: the kernel as it was built before its closed form, the sum
    of theta^(-k) (D^k j_mu)(lam x) over k < r; trustworthy through degree
    N - r + 1."""
    from rdunkl.series import lincomb

    theta = mu.cyclic.theta
    terms = []
    cur = rd.bessel_j_series(mu, N)
    for k in range(mu.r):
        terms.append((theta ** (-k), rd.scale_argument(cur, lam)))
        if k < mu.r - 1:
            cur = rd.apply_D(mu, cur)
    return lincomb(terms)


def _kernel_index(r, alpha0):
    rng = np.random.default_rng(70 + r)
    return rd.IndexVector(r, (alpha0,) + tuple(rng.uniform(-0.4, 1.5, r - 1)))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha0", [0.0, 0.35])
@pytest.mark.parametrize("lam", [1.0, 0.7 + 0.4j])
def test_kernel_series_bit_identical_to_d_chain(r, alpha0, lam):
    mu = _kernel_index(r, alpha0)
    for N in (0, r - 1, 60, 200):
        old = _d_chain_kernel_series(mu, lam, N)
        new = rd.dunkl_kernel_series(mu, lam, N)
        assert (new.n_min, new.n_max, new.valid_order) == (old.n_min, N, N)
        assert old.valid_order == N - r + 1
        top = old.valid_order - old.n_min + 1
        assert np.array_equal(new.coeffs[:top], old.coeffs[:top])


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_kernel_series_at_lam_zero(r):
    # E_mu(0 x) = 1; the D-chain build reached lam = 0 only at N = 0 (its
    # scalar substitution kept a valid_order above the one stored degree)
    mu = _kernel_index(r, 0.0)
    old = _d_chain_kernel_series(mu, 0.0, 0)
    for N in (0, r - 1, 60, 200):
        new = rd.dunkl_kernel_series(mu, 0.0, N)
        assert (new.n_min, new.valid_order) == (0, N)
        assert np.array_equal(new.coeffs, np.eye(1, N + 1)[0])
    assert np.array_equal(rd.dunkl_kernel_series(mu, 0.0, 0).coeffs, old.coeffs)
    singular = _kernel_index(r, 0.35)
    with pytest.raises(DomainError):
        _d_chain_kernel_series(singular, 0.0, 0)
    for N in (0, 60):
        with pytest.raises(DomainError):
            rd.dunkl_kernel_series(singular, 0.0, N)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_kernel_series_top_degrees_match_mpmath(r):
    # alpha_0 = 0: e_n = theta^n / prod_{i<=n} (i + a_{(-i) mod r}); past
    # n ~ 165 the coefficients are subnormal, so N stops at 150
    mu = _kernel_index(r, 0.0)
    for N in (r - 1, 60, 150):
        E = rd.dunkl_kernel_series(mu, 1.0, N)
        for n in range(N - r + 2, N + 1):  # the degrees the D-chain left untrustworthy
            with mpmath.workdps(40):
                want = complex(mpmath.exp(1j * mpmath.pi * n / r) / mpmath.fprod(
                    i + mpmath.mpf(mu.a[(-i) % r]) for i in range(1, n + 1)))
            assert abs(E[n] - want) <= 1e-14 * abs(want)


def _d_chain_kernel_values(mu, z):
    """Oracle: the kernel values as computed before the shared evaluator."""
    z = np.asarray(z, dtype=complex)
    zmax = float(np.max(np.abs(z)))
    ser = _d_chain_kernel_series(mu, 1.0, kernel_series_degree(mu.r, zmax))
    vals = rd.evaluate(ser, z)
    if zmax > 1.0:
        scale = max(float(np.min(np.abs(np.atleast_1d(vals)))), 1e-300)
        if kernel_log_peak(ser, zmax) - np.log(scale) > np.log(1e12):
            raise SeriesOverflowError("cancellation")
    return vals


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_kernel_values_refuse_where_the_d_chain_did(r):
    from rdunkl.operators import dunkl_kernel_values

    rng = np.random.default_rng(100 + r)
    mus = [rd.IndexVector(r, al) for al in (
        tuple(-k / r for k in range(r)), (0.0,) + tuple(rng.uniform(-0.4, 1.5, r - 1)),
        tuple(rng.uniform(-0.4, 1.5, r)))]
    seen = set()
    for mu in mus:
        for ax in (5, 10, 15, 20, 30, 40, 60, 80):
            for z in (ax, -ax, ax * np.exp(1j * np.pi / (2 * r)), 1j * ax):
                outcomes = []
                for fn in (_d_chain_kernel_values, dunkl_kernel_values):
                    try:
                        fn(mu, np.array([z]))
                        outcomes.append("value")
                    except SeriesOverflowError:
                        outcomes.append("refused")
                assert outcomes[0] == outcomes[1], (mu.alphas, z, outcomes)
                seen.add(outcomes[0])
    assert seen == {"value", "refused"}


def test_case_recurrences():
    rep = rd.case_recurrence_check(rd.IndexVector(3, (0.0, 0.8 - 1 / 3, -2 / 3)), 45)
    assert rep.passed and rep.residual < 1e-12
    rep = rd.case_recurrence_check(rd.IndexVector(2, (0.5, 0.3)), 45)
    assert rep.passed and rep.residual < 1e-12


def test_case_recurrence_degenerate_matches_cosr_derivative():
    r = 3
    c = rd.CyclicStructure(r)
    mu = rd.IndexVector(r, tuple(-k / r for k in range(r)))
    Dj = rd.apply_D(mu, rd.bessel_j_series(mu, 45))
    dcos = rd.differentiate(rd.cos_r_series(c, 45))
    assert rd.series_residual(Dj, dcos) < 1e-15
    assert rd.case_recurrence_check(mu, 45).passed


def test_chain_expansion_known_values():
    # the empty chain is the identity
    assert rd.chain_expansion_coeffs([]) == [1.0]
    assert rd.chain_expansion_coeffs([0.0]) == [1.0, 0.0]
    a0, a1 = 0.8, 2.3
    P = rd.chain_expansion_coeffs([a0, a1])
    assert np.allclose(P, [1.0, a0 + a1, a0 * (a1 - 1.0)])
    assert rd.chain_expansion_coeffs([0.0, 0.0]) == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_chain_expansion_identity_on_monomials(k):
    # both sides of the expansion agree on x^m for m = k..k+20
    rng = np.random.default_rng(k)
    a = rng.uniform(-1.5, 2.5, k)
    P = rd.chain_expansion_coeffs(a)
    for m in range(k, k + 21):
        lhs = apply_L_chain(monomial(m), a)
        rhs = 0.0
        ff = 1.0
        fall = {0: 1.0}
        for l in range(1, k + 1):
            ff *= m - l + 1
            fall[l] = ff
        for j in range(k + 1):
            rhs += P[j] * fall[k - j]
        assert abs(lhs[m - k] - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_v_terms_list_and_values():
    # mu = (0, v - 1/3, -2/3) at r = 3: a = (0, 3v, 0), so P^(0) = (1),
    # P^(1) = (1, 0) and P^(2) = (1, 3v, 0); the grade-0 term comes first and
    # the vanishing coefficients are skipped
    v = 0.9
    mu = rd.IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
    terms = v_terms(mu)
    assert isinstance(terms, list)
    assert [(k, j) for k, j, _ in terms] == [(0, 0), (1, 0), (2, 0), (2, 1)]
    theta = mu.cyclic.theta
    assert np.allclose([coef for _, _, coef in terms], [1.0, 1.0, 1.0, 3 * v / theta])
    mu4 = rd.IndexVector(4, (0.3, 0.5, 0.7, 0.9))
    theta4 = mu4.cyclic.theta
    want = [(k, j, P / theta4 ** j) for k in range(4)
            for j, P in enumerate(rd.chain_expansion_coeffs(mu4.a[:k])) if P != 0.0]
    assert v_terms(mu4) == want


def test_kernel_log_peak():
    ser = rd.LaurentSeries(-1, np.array([2.0, 0.0, 3.0, 0.5]))
    # terms 2 (degree -1 counts as zmax^0), 3 zmax, 0.5 zmax^2
    assert kernel_log_peak(ser, 10.0) == pytest.approx(np.log(50.0))
    assert kernel_log_peak(ser, 2.0) == pytest.approx(np.log(6.0))
    assert kernel_log_peak(rd.LaurentSeries(0, np.zeros(3)), 10.0) == -np.inf


def test_chain_closed_form_is_unreliable_for_k2():
    # the printed closed form disagrees with the defining solve at k = 2,
    # which is why it stays diagnostic
    a = [0.8, 2.3]
    P = rd.chain_expansion_coeffs(a)
    Pc = chain_expansion_closed_form(a)
    assert not np.allclose(P, Pc)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_power_identity_per_grade(r):
    rng = np.random.default_rng(10 * r)
    alphas = tuple(rng.uniform(0.05, 2.0, r))
    mu = rd.IndexVector(r, alphas)
    for n in range(0, 61):
        rot, fixed = power_identity_residual(mu, n)
        assert rot < 1e-13
        if n % r == 0:
            assert fixed < 1e-13


def test_power_identity_fixed_chain_fails_off_grade_zero():
    # counterexample pinning the grade-0 restriction: r=2, a=(0,3) gives
    # D^2 x^3 = 12x while the fixed chain gives 15x
    mu = rd.IndexVector(2, (0.0, 1.0))
    d2 = rd.apply_D(mu, rd.apply_D(mu, monomial(3)))
    assert abs(d2[1] - 12.0) < 1e-13
    fixed = rd.apply_Delta(mu, monomial(3))
    assert abs(fixed[1] - 15.0) < 1e-13
    _, fixed_resid = power_identity_residual(mu, 3)
    assert fixed_resid > 1e-2


def _one_term_power_residuals(mu, n):
    """Oracle: the power identity on the one-term series x^n alone, each chain
    applied to it and compared by ``series_residual``."""
    f = monomial(n)
    dpow = f
    for _ in range(mu.r):
        dpow = rd.apply_D(mu, dpow)
    rot = rd.apply_Delta_rotated(mu, f, (-n) % mu.r)
    return series_residual(dpow, rot), series_residual(dpow, rd.apply_Delta(mu, f))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).flatmap(lambda r: st.tuples(
        st.just(r),
        st.booleans(),
        st.lists(st.floats(0.0, 1.0), min_size=r, max_size=r),
    )),
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=61, unique=True),
)
def test_power_identity_array_equals_one_term_calls(draw, degrees):
    # alpha_k in (-k/r + 0.05, 3), as the verify suites draw them; alpha_0 = 0
    # or not, so the chains on x^0 .. x^(r-1) reach the principal part or not
    r, alpha0_zero, u = draw
    alphas = [-k / r + 0.05 + (3.0 + k / r - 0.05) * v for k, v in enumerate(u)]
    if alpha0_zero:
        alphas[0] = 0.0
    mu = IndexVector(r, tuple(alphas))
    rot, fixed = power_identity_residual(mu, np.array(degrees))
    assert rot.shape == fixed.shape == (len(degrees),)
    for i, n in enumerate(degrees):
        want = _one_term_power_residuals(mu, n)
        assert (rot[i], fixed[i]) == want
        assert power_identity_residual(mu, n) == want


def test_power_identity_scalar_returns_floats():
    rot, fixed = power_identity_residual(IndexVector(3, (0.5, 0.2, 0.9)), 4)
    assert type(rot) is float and type(fixed) is float


@pytest.mark.parametrize("degrees", [[3, 5, 3], [0, 0], []])
def test_power_identity_refuses_repeated_or_no_degrees(degrees):
    with pytest.raises(ParameterError):
        power_identity_residual(IndexVector(2, (0.0, 1.0)), np.array(degrees, dtype=int))
