import numpy as np
import pytest

import rdunkl as rd
import rdunkl.transmutation as transmutation
from rdunkl._errors import ParameterError
from rdunkl.hilbert import (
    RayMap,
    inner_product_plain,
    ray_lincomb,
    ray_poly,
    ray_power,
    ray_projection,
)
from rdunkl.mehler import MehlerWeight
from rdunkl.operators import v_terms
from rdunkl.riemann_liouville import apply_R_adjoint, apply_R_quadrature, l_coefficient
from rdunkl.series import CyclicStructure, LaurentSeries, exp_series, monomial
from rdunkl.special import IndexVector
from rdunkl.transforms import _auto_Tmax
from rdunkl.transmutation import (
    build_V,
    build_V_star,
    closed_form_match_check,
    closed_form_V_r2,
    closed_form_V_r3,
    fourier_condition_value,
    fourier_sum_series,
    monomial_counterexample_check,
    transmutation_residual,
    v_maps_exp_to_kernel_check,
    _v_star_rays,
)


EX9 = rd.IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3))


def build_V_ray(mu: IndexVector, n_nodes: int = 48):
    """The transmutation operator as a ray evaluator, realized through its
    integral form (fractional means by quadrature along each ray).  Used to
    pair V against its adjoint on the decaying family."""
    weight = MehlerWeight(mu)
    r = mu.r
    c = mu.cyclic
    terms = v_terms(mu)

    def r_mean(g, beta):
        def fn(m, t):
            return apply_R_quadrature(beta, lambda z: g.on_ray(m, z), np.atleast_1d(t), r,
                                      n_nodes)

        return RayMap(fn)

    def chain(g):
        out = g
        for i in weight.included:
            beta = mu.alphas[i] + i / r
            p = r - i - 1
            out = ray_power(r_mean(ray_power(out, p, c), beta), -p, c)
        return out

    def apply(g) -> RayMap:
        out = []
        for k, j, coef in terms:
            inner = ray_power(chain(ray_power(g, k - j, c)), -k, c)
            out.append((coef, ray_projection(inner, k, c)))
        return ray_lincomb(out, weight.c_norm)

    return apply


def _ray_r_star(g, beta: float, a: float, r: int, n_nodes: int, Tmax: float) -> RayMap:
    """R*_beta applied along each ray to a ray evaluator, one ray at a time."""

    def fn(m, t):
        return apply_R_adjoint(beta, a, lambda w: g.on_ray(m, w), np.atleast_1d(t), r,
                               Tmax, n_nodes)

    return RayMap(fn)


def build_V_star_by_terms(mu: IndexVector, a: float, n_nodes: int = 48,
                          conjugate: bool = True):
    """The adjoint of V composed term by term from ray maps: every term
    (k, j) runs its own chain of R* quadratures on each ray.  The oracle of
    the grade-column evaluator ``_v_star_rays``."""
    weight = MehlerWeight(mu)
    r = mu.r
    c = mu.cyclic
    terms = v_terms(mu)

    # the chain adjoint: reversed product of conj(x)^(r-i-1) R* conj(x)^-(r-i-1)
    def chain_star(g):
        out = g
        for i in reversed(weight.included):
            beta = mu.alphas[i] + i / r
            p = r - i - 1
            stepped = _ray_r_star(ray_power(out, -p, c, conjugate), beta, a, r, n_nodes, 8.0)
            out = ray_power(stepped, p, c, conjugate)
        return out

    def apply(g) -> RayMap:
        out = []
        for k, j, coef in terms:
            inner = chain_star(ray_power(ray_projection(g, k, c), -k, c, conjugate))
            out.append((np.conj(coef) if conjugate else coef,
                        ray_power(inner, k - j, c, conjugate)))
        return ray_lincomb(out, weight.c_norm)

    return apply


def test_closed_form_match():
    assert closed_form_match_check(rd.IndexVector(2, (0.0, 0.6)), 40).residual < 1e-13
    assert closed_form_match_check(EX9, 40).residual < 1e-13


def test_v_sends_constants_to_unit_value():
    # the grade-0 term carries the normalization: (V 1)(0) = 1 for alpha_0 = 0
    for mu in (rd.IndexVector(2, (0.0, 0.6)), EX9):
        V = build_V(mu, 20)
        out = V.apply(monomial(0, n_max=20))
        assert abs(out[0] - 1.0) < 1e-14


def test_kernel_map_at_unit_scale_and_classical_family():
    # exact at lam = 1 for every index
    rep = v_maps_exp_to_kernel_check(EX9, 1.0, 60)
    assert rep.kind == "residual-below" and rep.passed and rep.residual < 1e-11
    # the classical r=2 family has no surviving correction term, so the map
    # holds at every spectral value including complex ones
    rep = v_maps_exp_to_kernel_check(rd.IndexVector(2, (0.0, 0.6)), 1.0, 60)
    assert rep.passed
    rep = v_maps_exp_to_kernel_check(rd.IndexVector(2, (0.0, 0.6)), 0.5 + 0.2j, 60)
    assert rep.kind == "residual-below" and rep.passed and rep.residual < 1e-11


def test_kernel_map_degenerate_index():
    for r in (2, 3):
        mu = rd.IndexVector(r, tuple(-k / r for k in range(r)))
        rep = v_maps_exp_to_kernel_check(mu, 0.7 + 0.1j, 50)
        assert rep.kind == "residual-below" and rep.passed


def test_kernel_map_off_unit_scale_gap_is_real():
    # the j >= 1 correction terms carry x^(-j) factors that do not rescale,
    # so away from lam = 1 the map genuinely fails for the r=3 family; the
    # check reports the gap instead of asserting it away
    rep = v_maps_exp_to_kernel_check(EX9, 0.5 + 0.2j, 60)
    assert rep.kind == "measured"
    assert rep.residual > 1e-2


def test_inverse_round_trips():
    rng = np.random.default_rng(4)
    for mu in (rd.IndexVector(2, (0.0, 0.6)), EX9):
        V = build_V(mu, 60)
        f = LaurentSeries(0, rng.standard_normal(61) + 1j * rng.standard_normal(61))
        assert rd.series_residual(V.solve(V.apply(f)), f) < 1e-10
        assert rd.series_residual(V.apply(V.solve(f)), f) < 1e-10


def test_inverse_matches_closed_forms():
    # r=2: (1/c)[R^{-1} T_0 + x^{-1} R^{-1} x T_1] on monomials
    alpha, N = 0.6, 30
    mu = rd.IndexVector(2, (0.0, alpha))
    V = build_V(mu, N)
    c_a = closed_form_V_r2(alpha, N)[0, 0] / l_coefficient(0, alpha + 0.5, 2)
    for n in range(0, N - 2):
        e = V.solve(monomial(n, n_max=N))
        ell = l_coefficient(n, alpha + 0.5, 2) if n % 2 == 0 else l_coefficient(n + 1, alpha + 0.5, 2)
        want = 1.0 / (c_a * ell)
        assert abs(e[n] - want) / abs(want) < 1e-12
    # r=3: the inverse includes the correction term -(3v/theta) x^{-3} R^{-1} x^2 T_1
    v, N = 0.9, 40
    theta = CyclicStructure(3).theta
    V3 = build_V(EX9, N)
    c_v = closed_form_V_r3(v, N)[0, 0] / l_coefficient(1, v, 3)
    for n in range(1, N - 4):
        e = V3.solve(monomial(n, n_max=N))
        if n % 3 == 0:
            want_diag = 1.0 / (c_v * l_coefficient(n + 1, v, 3))
        elif n % 3 == 2:
            want_diag = 1.0 / (c_v * l_coefficient(n + 2, v, 3))
        else:
            want_diag = 1.0 / (c_v * l_coefficient(n + 3, v, 3))
        assert abs(e[n] - want_diag) / abs(want_diag) < 1e-12
        if n % 3 == 2:
            # V^{-1} x^n picks up the correction at degree n - 1
            want_corr = -(3.0 * v / theta) * l_coefficient(n + 2, v, 3) / (
                c_v * l_coefficient(n + 2, v, 3) * l_coefficient(n + 2 - 3 + 3, v, 3)
            )
            # cross-check numerically instead of the closed form: V e must
            # return the monomial
            back = V3.apply(e)
            assert abs(back[n] - 1.0) < 1e-11
            assert abs(back[n - 1]) < 1e-11


def test_triangularity_and_band():
    for mu in (rd.IndexVector(2, (0.0, 0.6)), EX9, rd.IndexVector(3, (0.2, 0.5, 1.0))):
        V = build_V(mu, 30)
        M = V.matrix
        r = mu.r
        for col in range(M.shape[1]):
            n = col
            for row_deg in range(V.row_min, 31):
                val = abs(M[row_deg - V.row_min, col])
                if val > 0:
                    assert n - (r - 1) <= row_deg <= n


def test_monomial_transmutation_r2_and_identity_l_relation():
    alpha = 0.6
    mu = rd.IndexVector(2, (0.0, alpha))
    worst = 0.0
    for n in range(1, 41):
        worst = max(worst, transmutation_residual(mu, monomial(n, n_max=60), 60).residual)
    assert worst < 1e-12
    # the identity making it work: l_{2n}(2n+1) = l_{2n+2}(2n+2alpha+2)
    for n in range(0, 15):
        lhs = l_coefficient(2 * n, alpha + 0.5, 2) * (2 * n + 1)
        rhs = l_coefficient(2 * n + 2, alpha + 0.5, 2) * (2 * n + 2 * alpha + 2)
        assert abs(lhs - rhs) / abs(rhs) < 1e-13


def test_monomial_counterexample_r3():
    rep = monomial_counterexample_check(EX9, 3)
    assert rep.passed and rep.residual > 1e-2  # failure is the expected outcome
    # stability across degree settings
    for N in (30, 50, 70):
        rep = monomial_counterexample_check(EX9, 3, N=N)
        assert rep.residual > 1e-2


def test_kernel_eigen_through_transmutation():
    # D applied to V exp(theta lam x) equals theta lam times it when the
    # kernel map holds (classical family, any lam; general family at lam=1)
    from rdunkl.operators import apply_D

    c = CyclicStructure(2)
    mu = rd.IndexVector(2, (0.0, 0.6))
    lam = 0.7 + 0.3j
    V = build_V(mu, 60)
    VE = V.apply(exp_series(c.theta * lam, 60))
    lhs = apply_D(mu, VE)
    rhs = LaurentSeries(VE.n_min, c.theta * lam * VE.coeffs, VE.valid_order - 1)
    assert rd.series_residual(lhs, rhs) < 1e-10


def test_fourier_condition_values():
    c2, c3 = CyclicStructure(2), CyclicStructure(3)
    assert fourier_condition_value({0: 1.0}, c3) == 1.0
    # real roots for r=2 make the bound the plain coefficient sum
    assert abs(fourier_condition_value({1: 0.5, -2: 0.25, 0: 0.25}, c2) - 1.0) < 1e-14
    # r=3 single coefficient at n=1
    want = np.exp(np.pi * np.sin(2 * np.pi / 3))
    assert abs(fourier_condition_value({1: 1.0}, c3) - want) < 1e-12


def test_fourier_sum_transmutation_is_measured_and_fails_for_r3():
    # even under the normal-convergence bound the intertwining relation
    # cannot close for r = 3: it already fails on pure exponentials, whose
    # correction terms scale wrongly; the check therefore only measures
    T = 16 * np.pi
    coeffs = {n: 0.7 ** abs(n) for n in range(-8, 9)}
    fser = fourier_sum_series(coeffs, T, 80)
    rep = transmutation_residual(EX9, fser, 80)
    assert rep.kind == "measured"
    assert rep.residual > 1e-2
    assert np.isfinite(fourier_condition_value(coeffs, CyclicStructure(3)))


def test_transmutation_on_single_exponential_r3_fails():
    # the sharpest form of the negative result: one exponential suffices
    s = 2j * np.pi * 3 / 50.0
    f = exp_series(s, 70)
    rep = transmutation_residual(EX9, f, 70)
    assert rep.residual > 1e-2


def test_v_star_adjoint_pairing_r2():
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c = CyclicStructure(2)
    Tmax = _auto_Tmax(2, 2.0, 0.0)
    f = ray_poly(c, [0.3, 1.0, 0.4])
    g = ray_poly(c, [1.0, -0.5, 0.0, 0.2])
    Vf = build_V_ray(mu, 48)(f)
    Vsg = build_V_star(mu, a, 48)(g)
    lhs = inner_product_plain(Vf, g, a, Tmax, 400, c)
    rhs = inner_product_plain(f, Vsg, a, Tmax, 400, c)
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-7


def test_v_star_adjoint_pairing_r3():
    v = 0.9
    a = 3 * v
    mu = EX9
    c = CyclicStructure(3)
    Tmax = _auto_Tmax(3, 2.0, 0.0)
    f = ray_poly(c, [0.5, 1.0, 0.0, 0.3])
    g = ray_poly(c, [1.0, 0.0, -0.4])
    Vf = build_V_ray(mu, 48)(f)
    Vsg = build_V_star(mu, a, 48)(g)
    lhs = inner_product_plain(Vf, g, a, Tmax, 400, c)
    rhs = inner_product_plain(f, Vsg, a, Tmax, 400, c)
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-7


def test_v_star_closed_form_r2():
    # c[R* T_0 + x R* (1/x) T_1] on real rays
    alpha = 0.5
    a = 2 * alpha + 1.0
    mu = rd.IndexVector(2, (0.0, alpha))
    c = CyclicStructure(2)
    g = ray_poly(c, [1.0, 0.7])
    generic = build_V_star(mu, a, 48)(g)
    from rdunkl.mehler import MehlerWeight

    cw = MehlerWeight(mu).c_norm

    def project(h, k):
        def fn(m, t):
            acc = np.zeros(np.shape(t), dtype=complex)
            for n in range(2):
                acc += c.omega_pow(n * k) * h.on_ray(m + n, t)
            return acc / 2

        return RayMap(fn)

    def xpow(h, p):
        return RayMap(lambda m, t: (np.conj(c.omega_pow(m)) * t) ** p * h.on_ray(m, t))

    beta = alpha + 0.5
    t0 = _ray_r_star(project(g, 0), beta, a, 2, 48, 8.0)
    t1 = xpow(_ray_r_star(xpow(project(g, 1), -1), beta, a, 2, 48, 8.0), 1)
    ts = np.linspace(0.3, 2.5, 5)
    for m in range(2):
        want = cw * (t0.on_ray(m, ts) + t1.on_ray(m, ts))
        got = generic.on_ray(m, ts)
        assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300) < 1e-8


def test_v_star_closed_form_r3_with_conjugated_scalar():
    # four terms with every power conjugated per ray; the defining adjoint
    # relation forces the scalar on the correction term to conjugate too
    v = 0.9
    a = 3 * v
    mu = EX9
    c = CyclicStructure(3)
    theta = c.theta
    g = ray_poly(c, [1.0, 0.4, 0.0, -0.2])
    generic = build_V_star(mu, a, 48)(g)
    from rdunkl.mehler import MehlerWeight

    cw = MehlerWeight(mu).c_norm

    def project(h, k):
        def fn(m, t):
            acc = np.zeros(np.shape(t), dtype=complex)
            for n in range(3):
                acc += c.omega_pow(n * k) * h.on_ray(m + n, t)
            return acc / 3

        return RayMap(fn)

    def xpow(h, p):
        return RayMap(lambda m, t: (np.conj(c.omega_pow(m)) * t) ** p * h.on_ray(m, t))

    def rstar(h):
        return _ray_r_star(h, v, a, 3, 48, 8.0)

    t0 = xpow(rstar(xpow(project(g, 0), -1)), 1)
    t1 = xpow(rstar(xpow(project(g, 1), -2)), 2)
    t2 = xpow(rstar(xpow(project(g, 2), -3)), 3)
    t3 = xpow(rstar(xpow(project(g, 2), -3)), 2)
    scal = np.conj(3.0 * v / theta)
    ts = np.linspace(0.3, 2.0, 4)
    for m in range(3):
        want = cw * (t0.on_ray(m, ts) + t1.on_ray(m, ts) + t2.on_ray(m, ts)
                     + scal * t3.on_ray(m, ts))
        got = generic.on_ray(m, ts)
        assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300) < 1e-8


def test_build_V_requires_integrable_weights():
    with pytest.raises(ParameterError):
        build_V(rd.IndexVector(2, (0.0, -0.7)), 20)


def _matrix_per_degree_loop(mu, N):
    # reference assembly: the chain expansion recomputed for every degree,
    # and every term skipped where its P_j vanishes
    from rdunkl.mehler import MehlerWeight
    from rdunkl.operators import chain_expansion_coeffs

    weight = MehlerWeight(mu)
    r, theta = mu.r, mu.cyclic.theta
    row_min = -(r - 1) if abs(mu.a[0]) > 1e-12 else 0
    M = np.zeros((N - row_min + 1, N + 1), dtype=complex)

    def chain_factor(n):
        out = 1.0
        for i in weight.included:
            out *= l_coefficient(n + r - i - 1, mu.alphas[i] + i / r, r)
        return out

    c_norm = weight.c_norm
    for n in range(N + 1):
        if n % r == 0:
            M[n - row_min, n] += c_norm * chain_factor(n)
        for k in range(1, r):
            P = chain_expansion_coeffs(mu.a[:k])
            for j in range(k + 1):
                if P[j] == 0.0 or (n - j) % r != (-k) % r:
                    continue
                M[n - j - row_min, n] += c_norm * (P[j] / theta ** j) * chain_factor(n + k - j)
    return M


@pytest.mark.parametrize("alphas", [
    (0.0, 0.6),
    (0.4, 0.6),
    (0.0, 0.9 - 1 / 3, -2 / 3),
    (0.3, 0.5, 1.2),
    (0.0, 0.2, 0.5, 0.1),
    (0.7, 0.2, 0.5, 0.1),
    (0.0, 0.5, 0.7, 0.9, 1.1),
    (0.3, 0.5, 0.7, 0.9, 1.1),
])
def test_matrix_bit_identical_to_per_degree_loop(alphas):
    mu = rd.IndexVector(len(alphas), alphas)
    for N in (30, 200):
        V = build_V(mu, N)
        want = _matrix_per_degree_loop(mu, N)
        assert V.row_min == (0 if alphas[0] == 0.0 else -(mu.r - 1))
        assert np.array_equal(V.matrix, want)


@pytest.mark.parametrize("mu", [rd.IndexVector(2, (0.0, 0.5)), EX9], ids=["r2", "r3"])
def test_v_star_map_rebuilt_from_its_fn_gives_the_same_values_and_calls(mu, monkeypatch):
    # a profiler wrapper rebuilds the evaluator's map as RayMap(wrapped(map._fn));
    # the rebuilt map must answer every ray with the same values through the
    # same number of adjoint integrals
    calls = []
    real = transmutation.apply_R_adjoint

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(transmutation, "apply_R_adjoint", counting)
    c = mu.cyclic
    g = ray_poly(c, [0.4, 1.0, -0.3, 0.2])
    ts = np.linspace(0.2, 2.5, 7)

    def counted(ray_map, m):
        calls.clear()
        vals = ray_map.on_ray(m, ts)
        return vals, len(calls)

    for conjugate in (True, False):
        vstar = build_V_star(mu, 2.1, 48, conjugate)
        original, rebuilt = vstar(g), RayMap(vstar(g)._fn)
        for m in list(range(mu.r)) + [np.arange(mu.r)]:
            want, n_want = counted(original, m)
            got, n_got = counted(rebuilt, m)
            assert n_want > 0 and n_got == n_want
            assert np.array_equal(got, want)


#: (index, nodes) of the grade-column checks: r = 2 and the r = 3 family
#: with one included dimension, and an r = 4 index with two
V_STAR_CASES = [
    (rd.IndexVector(2, (0.0, 0.5)), 48),
    (EX9, 48),
    (rd.IndexVector(4, (0.0, 0.5, 0.25, -0.75)), 12),
]


@pytest.mark.parametrize("mu, n_nodes", V_STAR_CASES, ids=["r2", "r3-ex9", "r4-two-dims"])
@pytest.mark.parametrize("conjugate", [True, False], ids=["adjoint", "transpose"])
def test_v_star_rays_match_the_term_by_term_composition(mu, n_nodes, conjugate):
    c = mu.cyclic
    g = ray_poly(c, [0.4, 1.0, -0.3, 0.2, 0.5j])
    ts = np.linspace(0.2, 2.5, 7)
    got = _v_star_rays(mu, 2.1, g, ts, n_nodes, conjugate)
    want = build_V_star_by_terms(mu, 2.1, n_nodes, conjugate)(g).on_ray(np.arange(mu.r), ts)
    assert got.shape == (mu.r, len(ts))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mu, n_nodes", V_STAR_CASES, ids=["r2", "r3-ex9", "r4-two-dims"])
def test_v_star_map_reads_its_rays_off_the_grade_columns(mu, n_nodes):
    # build_V_star's ray m is row m of _v_star_rays, bit for bit, and its fn
    # answers an array of rays with those rows
    g = ray_poly(mu.cyclic, [1.0, -0.5, 0.3])
    ts = np.linspace(0.3, 2.0, 5)
    for conjugate in (True, False):
        rows = _v_star_rays(mu, 1.7, g, ts, n_nodes, conjugate)
        vstar = build_V_star(mu, 1.7, n_nodes, conjugate)(g)
        for m in range(mu.r):
            assert np.array_equal(vstar.on_ray(m, ts), rows[m])
        assert np.array_equal(vstar._fn(np.arange(mu.r), ts), rows)


@pytest.mark.parametrize("mu, n_nodes", V_STAR_CASES[:2], ids=["r2", "r3-ex9"])
def test_v_star_rays_run_one_adjoint_quadrature_per_included_dimension(mu, n_nodes,
                                                                        monkeypatch):
    # every grade and every ray share one R* call for the chain's one level
    # (a deeper level runs once per quadrature part of the level above)
    calls = []
    real = transmutation.apply_R_adjoint

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(transmutation, "apply_R_adjoint", counting)
    g = ray_poly(mu.cyclic, [0.4, 1.0, -0.3, 0.2])
    _v_star_rays(mu, 2.1, g, np.linspace(0.2, 2.5, 7), n_nodes, False)
    assert len(calls) == len(MehlerWeight(mu).included)


def test_row_min_follows_the_terms_for_a_tiny_nonzero_alpha0():
    # alpha_0 = 1e-13 keeps every correction term with P_j != 0, so the rows
    # reach degree -(r - 1); no entry may wrap round to the top rows
    mu = IndexVector(3, (1e-13, 0.5, 1.2))
    V = build_V(mu, 20)
    assert V.row_min == -2
    rows, cols = np.nonzero(V.matrix)
    deg = rows + V.row_min
    assert np.all((cols - (mu.r - 1) <= deg) & (deg <= cols))
    assert np.all(V.matrix[-2:, 0] == 0.0)


@pytest.mark.parametrize("N", [60, 200])
@pytest.mark.parametrize("seed", range(4))
def test_r2_monomial_intertwining_equals_the_per_monomial_residuals(seed, N):
    # the suite reads V x^n and V (x^n)' off the columns of its one V; the
    # residual is the one of a fresh V applied to each monomial
    from rdunkl.verify import suite_transmutation

    reports = {rep.check_id: rep for rep in suite_transmutation(2, seed, 48, N)}
    mu = IndexVector(2, tuple(reports["transmutation.closed_form.r2"].params["alphas"]))
    want = max(transmutation_residual(mu, monomial(n, n_max=N), N).residual
               for n in range(1, 41))
    assert reports["transmutation.monomials_intertwine"].residual == want


@pytest.mark.parametrize("mu", [
    rd.IndexVector(2, (0.0, 0.6)), EX9, rd.IndexVector(4, (0.0, 0.75, 0.5, 0.25)),
    rd.IndexVector(3, (0.4, 0.2, -0.3)), rd.IndexVector(5, (0.7, 0.2, 0.4, 0.6, 0.8)),
], ids=["r2", "r3-ex9", "r4", "r3-alpha0", "r5-alpha0"])
def test_leading_block_is_the_smaller_V_bit_for_bit(mu):
    # alpha_0 = 0 and alpha_0 != 0 (rows start below degree 0): the leading
    # block of one large V is build_V at each smaller degree, and applying or
    # inverting it gives the same bytes
    big = build_V(mu, 200)
    rng = np.random.default_rng(mu.r)
    for N in (0, 1, 40, 60, 80, 199, 200):
        small, block = build_V(mu, N), big._leading_block(N)
        assert (block.N, block.row_min, block.c_norm) == (small.N, small.row_min, small.c_norm)
        assert block.matrix.shape == small.matrix.shape
        assert block.matrix.tobytes() == np.ascontiguousarray(small.matrix).tobytes()
        f = LaurentSeries(0, rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))
        assert block.apply(f).coeffs.tobytes() == small.apply(f).coeffs.tobytes()
        if small.row_min == 0:
            assert block.solve(f).coeffs.tobytes() == small.solve(f).coeffs.tobytes()
    assert big._leading_block(200) is big


def test_checks_on_a_leading_block_equal_the_public_checks():
    # the suite reads every check off one V; each equals its public
    # function, which builds its own V at the degree it is given
    big = build_V(EX9, 80)
    f = fourier_sum_series({0: 1.0, 1: 0.5, -1: 0.5j}, 16 * np.pi, 80)
    pairs = [
        (transmutation._closed_form_report(big._leading_block(40)),
         closed_form_match_check(EX9, 40)),
        (transmutation._exp_to_kernel_report(big._leading_block(60), 0.5 + 0.2j),
         v_maps_exp_to_kernel_check(EX9, 0.5 + 0.2j, 60)),
        (transmutation._monomial_counterexample_report(big._leading_block(60), 3),
         monomial_counterexample_check(EX9, 3, 60)),
        (transmutation._transmutation_residual_report(big, f),
         transmutation_residual(EX9, f, 80)),
    ]
    for got, want in pairs:
        assert got.to_json() == want.to_json()
