"""Named check suites behind the `verify` subcommand.

Every suite is deterministic for a given seed and returns a list of
VerificationReport.  Checks that encode identities which genuinely fail off
their validity domain (documented in the module docstrings) are emitted
with kind "measured" or "exceeds-floor" rather than being gated, so a suite
exits clean exactly when every asserted identity holds.
"""

from __future__ import annotations

import numpy as np

from . import operators, transmutation as tm, transforms as tf
from .dunkl_opdam import KappaVector, NoSolution, a_to_kappa, kappa_to_a, reflection_sum
from .hilbert import (
    RayMap,
    _random_test_function,
    dunkl_adjoint_residual,
    dunkl_antisymmetry_residual,
    inner_product_plain,
    integration_by_parts_check,
    multiplication_adjoint_residuals,
    projector_symmetry_check,
    ray_poly,
)
from .mehler import beta_lemma_check, mehler_E, mehler_j
from .operators import (
    apply_D,
    apply_Delta,
    case_recurrence_check,
    chain_expansion_closed_form,
    chain_expansion_coeffs,
    dunkl_kernel_series,
    power_identity_residual,
)
from .quadrature import gauss_legendre_rule
from .reports import KIND_EXCEEDS_FLOOR, KIND_MEASURED, KIND_RESIDUAL_BELOW, make_report
from .riemann_liouville import (
    apply_R_inverse_derivative_form,
    apply_R_inverse_series,
    apply_R_quadrature,
    apply_R_series,
    apply_R_adjoint,
    composition_law_check,
    l_coefficient,
    product_factorization_check,
)
from .series import (
    CyclicStructure,
    LaurentSeries,
    evaluate,
    exp_series,
    project_T,
    series_residual,
    shifted,
)
from .special import IndexVector, bessel_j_series, bessel_j_value, cos_r_series


def _random_mu(r: int, rng, alpha0_zero: bool = False) -> IndexVector:
    """Draw alpha_k in (-k/r + 0.05, 3); the range keeps the Mehler weights
    integrable and every Pochhammer factor off its poles."""
    alphas = []
    for k in range(r):
        lo = -k / r + 0.05
        alphas.append(float(rng.uniform(lo, 3.0)))
    if alpha0_zero:
        alphas[0] = 0.0
    return IndexVector(r, tuple(alphas))


def suite_eigen(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    out = []
    worst, worst_pp = 0.0, 0.0
    for _ in range(8):
        mu = _random_mu(r, rng)
        for lam in (1.0, 0.7 + 0.4j):
            reg, pp = operators.bessel_eigen_residuals(mu, lam, degree)
            worst = max(worst, reg)
            worst_pp = max(worst_pp, pp)
    out.append(make_report("eigen.bessel_equation", {"r": r, "draws": 8, "degree": degree},
                           worst, 1e-12))
    out.append(make_report(
        "eigen.bessel_equation_singular_term", {"r": r, "draws": 8},
        worst_pp, 1e-12,
        notes=["for alpha_0 != 0 the chain emits r^r prod(alpha) x^(-r) from the "
               "constant term; checked against that closed form"]))
    worst = 0.0
    c = CyclicStructure(r)
    for _ in range(6):
        mu = _random_mu(r, rng, alpha0_zero=True)
        for lam in (1.0, 0.7 + 0.4j):
            E = dunkl_kernel_series(mu, lam, degree)
            resid = series_residual(
                apply_D(mu, E),
                shifted(E, c.theta * lam * E.coeffs),
            )
            worst = max(worst, resid)
    out.append(make_report("eigen.kernel_equation", {"r": r, "draws": 6, "degree": degree},
                           worst, 1e-12))
    for case, a0z in (("alpha0_nonzero", False), ("alpha0_zero", True)):
        worst = 0.0
        for _ in range(10):
            mu = _random_mu(r, rng, alpha0_zero=a0z)
            worst = max(worst, case_recurrence_check(mu, degree).residual)
        out.append(make_report(f"eigen.case_recurrence.{case}", {"r": r, "draws": 10},
                               worst, 1e-12))
    mu_deg = IndexVector(r, tuple(-k / r for k in range(r)))
    out.append(make_report(
        "eigen.degenerate_cosr", {"r": r},
        series_residual(bessel_j_series(mu_deg, degree), cos_r_series(c, degree)),
        1e-14))
    out.append(make_report(
        "eigen.degenerate_kernel_is_exponential", {"r": r},
        series_residual(dunkl_kernel_series(mu_deg, 1.0, degree), exp_series(c.theta, degree)),
        1e-13))
    return out


def suite_power(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    out = []
    mu = _random_mu(r, rng)
    # one pass over every degree
    ns = np.arange(0, min(degree, 60) + 1)
    rot, fixed = power_identity_residual(mu, ns)
    worst_rot = float(np.max(rot, initial=0.0))
    worst_fixed0 = float(np.max(fixed[ns % r == 0], initial=0.0))
    off_grade = fixed[ns % r != 0]
    out.append(make_report("power.grade0_vs_bessel_chain", {"r": r, "alphas": list(mu.alphas)},
                           worst_fixed0, 1e-13))
    out.append(make_report("power.per_grade_rotated_chain", {"r": r, "alphas": list(mu.alphas)},
                           worst_rot, 1e-13))
    if off_grade.size:
        out.append(make_report(
            "power.fixed_chain_off_grade_zero", {"r": r, "alphas": list(mu.alphas)},
            float(np.max(off_grade)), 1e-2, kind=KIND_EXCEEDS_FLOOR,
            notes=["negative_control: r-fold application on nonzero grades equals the "
                   "index-rotated chain, not the fixed one"]))
    else:
        # --degree 0: the negative control has nothing to measure
        out.append(make_report(
            "power.fixed_chain_off_grade_zero", {"r": r, "alphas": list(mu.alphas)},
            0.0, float("nan"), kind=KIND_MEASURED,
            notes=[f"not applicable: no off-grade degree in 0..{ns[-1]}"]))
    c = CyclicStructure(r)
    worst = 0.0
    f = LaurentSeries(0, rng.standard_normal(41) + 1j * rng.standard_normal(41))
    for k in range(r):
        worst = max(worst, series_residual(
            apply_Delta(mu, project_T(f, k, c)), project_T(apply_Delta(mu, f), k, c)))
    out.append(make_report("power.bessel_projector_commutation", {"r": r}, worst,
                           1e-13))
    worst = 0.0
    for k in range(1, min(r + 3, 7)):
        a = rng.uniform(-1.5, 2.5, k)
        P = chain_expansion_coeffs(a)
        for m in range(k, k + 21):
            lhs = 1.0
            for jj in range(k):
                lhs *= m - jj + a[jj]
            rhs, ff = 0.0, {0: 1.0}
            prod = 1.0
            for l in range(1, k + 1):
                prod *= m - l + 1
                ff[l] = prod
            for jj in range(k + 1):
                rhs += P[jj] * ff[k - jj]
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    out.append(make_report("power.chain_expansion_identity", {"max_k": min(r + 2, 6)},
                           worst, 1e-12))
    a2 = rng.uniform(-1.5, 2.5, 2)
    dev = max(abs(x - y) for x, y in zip(chain_expansion_coeffs(a2),
                                         chain_expansion_closed_form(a2)))
    out.append(make_report("power.closed_form_deviation", {"k": 2, "a": list(a2)}, dev,
                           float("nan"), kind=KIND_MEASURED,
                           notes=["printed closed form is diagnostic only"]))
    return out


def suite_mehler(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    rbeta = min(r, 4)
    for _ in range(20):
        x, y = rng.uniform(0.2, 3.0, 2)
        worst = max(worst, beta_lemma_check(float(x), float(y), rbeta, nodes).residual)
    out.append(make_report("mehler.beta_lemma", {"r": rbeta, "draws": 20, "nodes": nodes},
                           worst, 1e-12))
    mus = [_random_mu(r, rng, alpha0_zero=True), _random_mu(r, rng)]
    if r == 2:
        mus.append(IndexVector(2, (0.0, 0.75)))
    if r == 3:
        mus.append(IndexVector(3, (0.0, 0.9 - 1 / 3, -2 / 3)))
    worst = 0.0
    for mu in mus:
        worst = max(worst, abs(mehler_j(mu, 0.0, nodes) - 1.0))
    out.append(make_report("mehler.normalization", {"r": r, "nodes": nodes}, worst,
                           1e-10))
    worst_j, worst_E = 0.0, 0.0
    for mu in mus:
        kernel = dunkl_kernel_series(mu, 1.0, max(degree, 70))
        for x in (0.5, 1.0, 2.0, 5.0):
            want = bessel_j_value(mu, x)
            worst_j = max(worst_j, abs(mehler_j(mu, x, nodes) - want) / (1 + abs(want)))
            wantE = evaluate(kernel, x)
            worst_E = max(worst_E, abs(mehler_E(mu, x, nodes) - wantE) / (1 + abs(wantE)))
    out.append(make_report("mehler.series_agreement.j", {"r": r, "nodes": nodes}, worst_j,
                           1e-9))
    notes_E = []
    if any(abs(mu.alphas[0]) > 1e-12 for mu in mus):
        notes_E.append("kernel carries a principal part for the alpha_0 != 0 draws; "
                       "compared pointwise at x > 0")
    out.append(make_report("mehler.series_agreement.kernel", {"r": r, "nodes": nodes}, worst_E,
                           1e-8, notes=notes_E))
    mu = mus[0]
    x = 1.7
    want = bessel_j_value(mu, x)
    doublings = [6, 12, 24, 48]
    resids = [abs(mehler_j(mu, x, n) - want) / (1 + abs(want)) for n in doublings]
    ok = not any(b > 10.0 * a + 5e-14 for a, b in zip(resids, resids[1:]))
    out.append(make_report("mehler.node_doubling_trend",
                           {"r": r, "nodes": doublings, "residuals": resids},
                           0.0 if ok else 1.0, 0.0))
    return out


def suite_rl(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    out = []
    f = LaurentSeries(0, rng.standard_normal(31) + 1j * rng.standard_normal(31))
    worst = 0.0
    for order in (0.5, 1.0, 1.5, 2.7):
        worst = max(worst, series_residual(
            apply_R_inverse_series(order, apply_R_series(order, f, r), r), f))
    out.append(make_report("rl.series_round_trip", {"r": r}, worst, 1e-13))
    worst = 0.0
    alpha = float(rng.uniform(0.3, 1.8))
    for n in range(0, 9):
        got = apply_R_quadrature(alpha, lambda z: z ** n, 1.3, r, nodes)
        want = l_coefficient(n, alpha, r) * 1.3 ** n
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    out.append(make_report("rl.quadrature_vs_diagonal", {"r": r, "alpha": alpha},
                           worst, 1e-12))
    for k, tol in ((0, 1e-5), (1, 1e-5), (2, 1e-4)):
        alpha = float(rng.uniform(0.25, 0.75))
        order = k + alpha
        n_poly = 3
        coef = l_coefficient(n_poly, order, r)
        worst = 0.0
        for x in (0.2, 0.7, 1.3, 2.0):
            got = apply_R_inverse_derivative_form(
                k, alpha, lambda u, c=coef: c * u ** n_poly, float(x), r, nodes)
            worst = max(worst, abs(got - x ** n_poly) / max(x ** n_poly, 1e-300))
        out.append(make_report(f"rl.derivative_form_inverse.k{k}",
                               {"r": r, "alpha": alpha, "poly_degree": n_poly},
                               worst, tol))
    for k in (0, 1, 2):
        out.append(composition_law_check(k, float(rng.uniform(0.3, 0.9)), r))
    out.append(product_factorization_check(_random_mu(r, rng, alpha0_zero=True), degree,
                                           case="alpha0_zero"))
    out.append(product_factorization_check(_random_mu(r, rng), degree, case="random"))
    mu_deg = IndexVector(r, tuple(-kk / r for kk in range(r)))
    out.append(product_factorization_check(mu_deg, degree, case="degenerate"))
    # adjoint: <R f, g>_a = <f, R* g>_a on the decaying family
    c = CyclicStructure(r)
    a = float(rng.uniform(1.2, 2.4))
    alpha = float(rng.uniform(0.5, 1.2))
    Tmax = tf._auto_Tmax(r, 2.0, 0.0)  # the product of two members decays like exp(-2 t^r)
    ffn = _random_test_function(c, rng)
    gfn = _random_test_function(c, rng)

    def Rf_clean(m, t):
        # R_alpha along the ray: integral_0^1 f(omega^m t s)(1-s^r)^(alpha-1) ds,
        # with only the s = 1 endpoint in the Jacobi weight
        return apply_R_quadrature(alpha, lambda z: ffn.on_ray(m, z), np.atleast_1d(t), r, nodes)

    def Rstar_g(m, t):
        return apply_R_adjoint(alpha, a, lambda s: gfn.on_ray(m, s), np.atleast_1d(t), r,
                               Tmax=Tmax, n_nodes=nodes)

    # R* g carries a t^(-a) factor near 0, so both sides keep t^a explicit in one rule
    lhs = inner_product_plain(RayMap(Rf_clean), gfn, a, Tmax, 400, c)
    rhs = inner_product_plain(ffn, RayMap(Rstar_g), a, Tmax, 400, c)
    out.append(make_report("rl.adjoint_pairing", {"r": r, "alpha": alpha, "a": a},
                           abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0),
                           1e-7))
    return out


def suite_hilbert(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    c = CyclicStructure(r)
    out = []
    a = float(rng.uniform(1.5, 2.8))
    for i in range(min(r, 3)):
        out.append(projector_symmetry_check(i, a, c, rng))
    f = _random_test_function(c, rng)
    g = _random_test_function(c, rng)
    out.append(integration_by_parts_check(f, g, a))
    worst = 0.0
    for _ in range(6):
        mu = _random_mu(r, rng)
        aa = float(rng.uniform(1.2, 3.0))
        worst = max(worst, dunkl_adjoint_residual(mu, aa, _random_test_function(c, rng),
                                                  _random_test_function(c, rng)))
    out.append(make_report("hilbert.dunkl_adjointness", {"r": r, "draws": 6}, worst,
                           1e-8))
    r1, r2 = multiplication_adjoint_residuals(f, g, a)
    out.append(make_report("hilbert.multiplication_adjoints", {"r": r}, max(r1, r2),
                           1e-9))
    if r == 2:
        alpha = float(rng.uniform(0.2, 1.5))
        mu = IndexVector(2, (0.0, alpha))
        resid = dunkl_antisymmetry_residual(mu, 2 * alpha + 1.0, _random_test_function(c, rng),
                                            _random_test_function(c, rng))
        out.append(make_report("hilbert.antisymmetry_classical", {"alpha": alpha},
                               resid, 1e-8))
    if r == 3:
        v = 0.9
        mu = IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
        resid = dunkl_antisymmetry_residual(mu, 3 * v, _random_test_function(c, rng),
                                            _random_test_function(c, rng))
        out.append(make_report("hilbert.antisymmetry_r3_claim", {"v": v, "a": 3 * v},
                               resid, float("nan"), kind=KIND_MEASURED,
                               notes=["measured, not asserted: the adjoint formula keeps "
                                      "a surviving grade-0 term for these parameters"]))
        resid = integration_by_parts_check(f, g, a, ray_twist=False).residual
        out.append(make_report("hilbert.untwisted_by_parts_deviation", {"r": r}, resid,
                               float("nan"), kind=KIND_MEASURED,
                               notes=["the printed rule omits the x/conj(x) ray factor; "
                                      "its failure off real rays is expected"]))
    return out


def suite_transmutation(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    out = []
    N = max(degree, 60)
    if r == 2:
        mu = IndexVector(2, (0.0, float(rng.uniform(0.2, 1.5))))
    elif r == 3:
        v = float(rng.uniform(0.4, 1.4))
        mu = IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
    else:
        mu = _random_mu(r, rng, alpha0_zero=True)
    # one V at the largest degree read; every check reads its leading block,
    # which is build_V(mu, n) bit for bit
    V_top = tm.build_V(mu, max(N, 80) if r == 3 else N)
    if r in (2, 3):
        out.append(tm._closed_form_report(V_top._leading_block(40)))
    V = V_top._leading_block(N)
    out.append(tm._exp_to_kernel_report(V, 1.0))
    # asserted for the classical r=2 family, measured otherwise
    out.append(tm._exp_to_kernel_report(V, 0.5 + 0.2j))
    f = LaurentSeries(0, rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))
    resid = max(series_residual(V.solve(V.apply(f)), f),
                series_residual(V.apply(V.solve(f)), f))
    out.append(make_report("transmutation.inverse_round_trip", {"r": r, "N": N}, resid,
                           1e-10))
    tri = np.max(np.abs(np.tril(V.matrix[-(N + 1):, :], -1))) if V.row_min == 0 else 0.0
    out.append(make_report("transmutation.triangularity", {"r": r}, float(tri), 0.0,
                           notes=["no contributions above the input degree"]))
    if r == 2:
        # the 40 monomial checks read V's columns: no rebuild, no mat-vec
        worst = tm._monomials_intertwining_residual(V, range(1, 41))
        out.append(make_report("transmutation.monomials_intertwine", {"r": 2, "max_n": 40},
                               worst, 1e-12))
    if r == 3:
        out.append(tm._monomial_counterexample_report(V, 3))
        T = 16 * np.pi
        coeffs = {n: (0.7 ** abs(n)) * (1.0 if n >= 0 else 1j) for n in range(-8, 9)}
        fser = tm.fourier_sum_series(coeffs, T, V_top.N)
        rep = tm._transmutation_residual_report(V_top, fser)
        rep.notes.append(
            f"normal-convergence bound: {tm.fourier_condition_value(coeffs, CyclicStructure(3)):.6g}")
        rep.notes.append("the intertwining relation fails on exponentials off the unit "
                         "spectral scale, so this stays a measurement")
        out.append(rep)
    return out


def suite_transform(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    out = []
    c4 = CyclicStructure(4)
    lam = 0.5
    got = tf.laplace_theta(lambda t: np.exp(-t), lam, Tmax=60.0, n_nodes=600, c=c4)
    want = 1.0 / (1.0 - c4.theta * lam)
    out.append(make_report("transform.laplace_closed_form", {"r": 4, "lam": lam},
                           abs(got - want) / abs(want), 1e-8))
    G = lambda s: 1.0 / (1.0 - c4.theta * s)
    got = tf.laplace_theta_inverse(G, 1.0, cshift=1.0, T=200.0, n_nodes=4000, c=c4)
    out.append(make_report("transform.contour_round_trip", {"r": 4, "x": 1.0},
                           abs(got - np.exp(-1.0)), 1e-4))
    c2 = CyclicStructure(2)
    gauss = ray_poly(c2, [1.0], decay_scale=0.5)
    worst = 0.0
    for lamv in (-3.0, -1.0, 0.0, 1.5, 3.0):
        gotv = tf.f_r_transform(gauss, lamv, a=0.0, n_nodes=max(nodes * 5, 240))
        wantv = np.sqrt(2 * np.pi) * np.exp(-lamv ** 2 / 2.0)
        worst = max(worst, abs(gotv - wantv))
    out.append(make_report("transform.gaussian_fourier", {"r": 2}, worst,
                           1e-6))
    # the kernel of the degenerate index (-k/r)_k is exp(theta lam x)
    g0 = _random_test_function(CyclicStructure(r), rng)
    lam0 = 0.9
    mu_deg = IndexVector(r, tuple(-k / r for k in range(r)))
    quad = tf.f_r_transform(g0, lam0, a=0.0)
    exact = complex(tf.moment_transform(mu_deg, 0.0, g0, [lam0])[0][0])
    out.append(make_report("transform.base_vs_moment_series", {"r": r, "lam": lam0},
                           abs(quad - exact) / max(abs(quad), abs(exact), 1.0), 1e-12))
    if r == 2:
        alpha = 0.5
        a = 2 * alpha + 1.0
        mu = IndexVector(2, (0.0, alpha))
        g = ray_poly(c2, [0.0, 0.0, 1.0])
        out.append(tf.factorization_residual(mu, a, g, 0.8))
        out.append(tf.eigen_property_check(mu, a, g, 0.8))
        out.append(tf.grade_transport_check(ray_poly(c2, [0.0, 1.0]), 1, mu, a))
        godd = ray_poly(c2, [0.0, 1.0])
        vg = tm.build_V_star(mu, a, n_nodes=nodes, conjugate=False)(godd)
        rule = gauss_legendre_rule(300, 0.0, 7.0)
        tq, wq = rule.nodes, rule.weights
        # both rays off one V* evaluation
        u_p, u_m = tq ** a * vg._fn(np.arange(2), tq)

        def Ghat(s):
            # one exponential table E = exp(i s t); exp(-i s t) is its reciprocal
            E = np.exp(1j * np.outer(np.atleast_1d(np.asarray(s, dtype=complex)), tq))
            return E @ (wq * u_p) + (1.0 / E) @ (wq * u_m)

        got = tf.dunkl_transform_inverse(mu, a, Ghat, 1.0, grade_k=1, cshift=1.0, T=40.0)
        out.append(make_report("transform.inverse_round_trip", {"r": 2, "x": 1.0},
                               abs(got - np.exp(-1.0)), 1e-3))
    if r == 3:
        v = 0.9
        mu = IndexVector(3, (0.0, v - 1 / 3, -2 / 3))
        g = _random_test_function(CyclicStructure(3), rng)
        out.append(tf.factorization_residual(mu, 3 * v, g, 0.8))
        rep = tf.eigen_property_check(mu, 3 * v, g, 0.8)
        rep.notes.append("conditional on the transpose identity, which fails for these "
                         "parameters; see hilbert.antisymmetry_r3_claim")
        out.append(rep)
    return out


def suite_dunkl_opdam(r, seed, nodes, degree):
    rng = np.random.default_rng(seed)
    c = CyclicStructure(r)
    out = []
    worst = 0.0
    for _ in range(6):
        kap = KappaVector(r, tuple(rng.standard_normal(r - 1) + 1j * rng.standard_normal(r - 1)))
        back = a_to_kappa(kappa_to_a(kap, c), c)
        assert isinstance(back, KappaVector)
        worst = max(worst, max(abs(x - y) for x, y in zip(kap.kappas, back.kappas)))
    out.append(make_report("dunkl_opdam.kappa_round_trip", {"r": r, "draws": 6}, worst,
                           1e-13))
    worst = 0.0
    for _ in range(4):
        mu = _random_mu(r, rng, alpha0_zero=True)
        kap = a_to_kappa(list(mu.a), c)
        assert isinstance(kap, KappaVector)
        f = LaurentSeries(0, rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
        worst = max(worst, series_residual(reflection_sum(kap, f, c), apply_D(mu, f)))
    out.append(make_report("dunkl_opdam.operator_equality", {"r": r, "degree": degree},
                           worst, 1e-12))
    a0 = float(rng.uniform(0.5, 2.0))
    bad = [a0] + [float(v) for v in rng.standard_normal(r - 1)]
    res = a_to_kappa(bad, c)
    ok = isinstance(res, NoSolution) and abs(res.residual - a0 / r) < 1e-13
    out.append(make_report("dunkl_opdam.obstruction_scalar", {"r": r, "a0": a0},
                           0.0 if ok else 1.0, 0.0,
                           notes=["rejection carries residual |a_0|/r"]))
    return out


SUITES = {
    "eigen": suite_eigen,
    "power": suite_power,
    "mehler": suite_mehler,
    "rl": suite_rl,
    "hilbert": suite_hilbert,
    "transmutation": suite_transmutation,
    "transform": suite_transform,
    "dunkl-opdam": suite_dunkl_opdam,
}


def run_suites(names, r, seed, nodes=48, degree=60, tol_scale=1.0):
    """The named suites' reports, sorted by check id.  ``tol_scale``
    multiplies the tolerance of every residual-below report, wherever it was
    built, and its verdict is taken again against the scaled tolerance."""
    reports = []
    for name in names:
        reports.extend(SUITES[name](r, seed, nodes, degree))
    for rep in reports:
        if rep.kind == KIND_RESIDUAL_BELOW:
            rep.tolerance *= tol_scale
            rep.passed = rep.residual <= rep.tolerance
    reports.sort(key=lambda rep: rep.check_id)
    return reports
