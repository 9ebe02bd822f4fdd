"""Laplace-type transform, its contour inversion, and the r-Dunkl transform.

All transforms here pair functions BILINEARLY with their kernels,

    F_mu g(lam) = integral_0^inf sum_m g(omega^m t) E_mu(omega^m lam t) t^a dt,

i.e. the kernel is not conjugated.  For real data and real lam this is the
complex conjugate of the hermitian pairing, so every real identity is
unchanged, while the transform stays holomorphic in lam (needed by the
contour inversion and the grade-separation fits) and the transpose calculus
is bar-free: integration by parts on the rays gives the clean rule
(d/dx)^T = -(d/dx + a/x), under which the Dunkl transpose is
-(d/dx + (1/x) sum_k (a - a_k) T_{k+1}) and the spectral identity
F(D g) = -theta lam F(g) holds exactly whenever that transpose equals -D
(for instance r = 2 with a = 2 alpha + 1).

The r-Dunkl transform of the family p(x) exp(-s x^r) has one production
path, the exact moment series ``moment_transform``: the CLI and the
transform checks (eigen property, grade transport, the left side of the
factorization) read it.  The ray quadrature ``dunkl_transform_F`` stays as
its independent oracle.  ``laplace_theta_inverse`` is the one contour
inverter; the r = 2 inverse transform calls it on its whole collocation
grid.
"""

from __future__ import annotations

import warnings

import numpy as np

from ._errors import ParameterError, SeriesOverflowError, TailWarning
from .quadrature import gauss_legendre_rule
from .reports import KIND_MEASURED, VerificationReport, make_report
from .series import CyclicStructure, evaluate, kernel_log_peak, kernel_series_degree
from .special import IndexVector
from .hilbert import (_AllRayMap, RayTestFunction, _gamma_moments, _per_ray, _ray_integral,
                      ray_dunkl)
from .mehler import MehlerWeight
from .operators import dunkl_kernel_series
from .riemann_liouville import apply_R_adjoint
from .transmutation import _kernel_map_exact, build_V_star


def laplace_theta(g, lam: complex, Tmax: float = 60.0, n_nodes: int = 400, *,
                  c: CyclicStructure) -> complex:
    """integral_0^inf exp(theta t lam) g(t) dt, truncated at Tmax.

    Emits TailWarning when the endpoint magnitude suggests the truncated
    tail may exceed 1e-13 of the result.
    """
    rule = gauss_legendre_rule(n_nodes, 0.0, Tmax)
    kern = np.exp(c.theta * lam * rule.nodes)
    gv = np.asarray(g(rule.nodes), dtype=complex)
    val = complex(np.sum(rule.weights * kern * gv))
    tail_probe = abs(np.exp(c.theta * lam * Tmax) * complex(np.asarray(g(np.array([Tmax]))).ravel()[0]))
    if tail_probe * Tmax > 1e-13 * max(abs(val), 1e-30):
        warnings.warn(
            f"tail beyond Tmax={Tmax} not certifiably below 1e-13 (probe {tail_probe:.2e})",
            TailWarning,
        )
    return val


def _taper(y: np.ndarray, T: float) -> np.ndarray:
    """Smooth roll-off over the outer 10% of [-T, T]; suppresses the
    truncation ringing of the contour integral."""
    w = np.ones_like(y)
    edge = np.abs(y) > 0.9 * T
    xi = (np.abs(y[edge]) - 0.9 * T) / (0.1 * T)
    w[edge] = 0.5 * (1.0 - np.tanh(np.sinh(6.0 * xi - 3.0)))
    return w


def laplace_theta_inverse(G, x, cshift: float = 1.0, T: float = 200.0,
                          n_nodes: int = 4000, *, c: CyclicStructure):
    """Contour inversion along s = (-cshift + i y) conj(theta), y in [-T, T]:

        (1/(2 pi i conj(theta))) integral exp(-theta x s) G(s) ds
      = (e^(cshift x)/(2 pi)) integral exp(-i x y) G((-cshift + i y) conj(theta)) dy,

    discretized by the trapezoid rule with a tanh-sinh taper on the outer
    tenth of the window.

    x may be a number (the result is complex) or an array of points; G is
    called once on the contour nodes, and each point's sum takes the same
    operations in the same order as a scalar call, so the two agree bit for
    bit.
    """
    y = np.linspace(-T, T, n_nodes)
    dy = y[1] - y[0]
    s = (-cshift + 1j * y) * np.conj(c.theta)
    vals = np.asarray(G(s), dtype=complex)
    xs = np.asarray(x, dtype=float)
    integrand = np.exp(-1j * xs[..., None] * y) * vals * _taper(y, T)
    total = np.sum(integrand, axis=-1) * dy
    out = np.exp(cshift * xs) * total / (2.0 * np.pi)
    return complex(out) if np.ndim(x) == 0 else out


def _auto_Tmax(r: int, decay_scale: float, growth: float) -> float:
    T = (40.0 / decay_scale) ** (1.0 / r)
    for _ in range(60):
        if decay_scale * T ** r - growth * T - 24.0 * np.log(max(T, 2.0)) > 36.0:
            break
        T += 0.25
    return T


def f_r_transform(g, lam: complex, a: float = 0.0, n_nodes: int = 240,
                  c: CyclicStructure | None = None) -> complex:
    """Base transform: g paired with exp(theta lam x) over the rays.  A ray
    map without a cyclic structure of its own passes c."""
    c = c or g.c
    Tmax = _auto_Tmax(c.r, getattr(g, "decay_scale", 1.0), abs(lam))

    def kern(m, t):
        return np.exp(_per_ray(m, t, lambda k: c.theta * lam * c.omega_pow(k)) * t)

    return _ray_integral(g, kern, a, Tmax, n_nodes, c)


def dunkl_transform_F(mu: IndexVector, a: float, g, lam: complex,
                      n_nodes: int = 240) -> complex:
    """r-Dunkl transform of g at lam by ray quadrature, pairing against
    E_mu(omega^m lam t).

    This is the independent oracle of ``moment_transform`` (the tests and
    the benchmark's checks compare the two); no production path calls it.
    The kernel is evaluated through its series; a SeriesOverflowError from
    the evaluation signals that |lam| Tmax exceeded the reliable range.
    """
    if abs(mu.alphas[0]) > 1e-12:
        raise ParameterError("the transform kernel needs alpha_0 = 0")
    c, growth = mu.cyclic, abs(lam) * max(np.cos(np.pi / mu.r), 0.2)  # of the kernel on the rays
    Tmax = _auto_Tmax(c.r, getattr(g, "decay_scale", 1.0), growth)
    zmax = abs(lam) * Tmax
    ker = dunkl_kernel_series(mu, 1.0, kernel_series_degree(c.r, zmax))
    if zmax > 1.0 and kernel_log_peak(ker, zmax) > np.log(1e12):
        raise SeriesOverflowError(
            f"kernel series evaluation at |z| <= {zmax:.3g} would lose more than "
            f"12 digits; keep |lam| * Tmax below roughly 30"
        )

    def kern(m, t):
        return evaluate(ker, _per_ray(m, t, lambda k: lam * c.omega_pow(k)) * t)

    return _ray_integral(g, kern, a, Tmax, n_nodes, c)


def moment_transform(mu: IndexVector, a: float, g: RayTestFunction, lams):
    """r-Dunkl transform of g = sum_d c_d x^d exp(-s x^r) on a lam grid, by
    the exact moment series

        F_mu g(lam) = sum_{d + tau + n = 0 (mod r)} c_d e_n lam^n
                      Gamma((d+n+a+1)/r) s^(-(d+n+a+1)/r),

    where e_n are the coefficients of E_mu and tau the twist of g: the
    bilinear form of ``hilbert.pairing``'s Gamma moments.
    ``_moment_series`` sizes the series at rho, the largest finite |lam|
    (1 if that is 0), and one Horner pass over the grid sums its terms
    b_n = coef_n rho^n in x = lam / rho up to the degree n* it picks.

    Returns ``(values, error)``: ``error = 100 u sum_{n <= n*} |b_n| |x|^n``
    (u the double epsilon) estimates the rounding error of each value, plus
    the bound of the tail past n* at rho, which bounds it at every
    |lam| <= rho.  A non-finite lam gets a NaN value and does not enter rho.
    """
    lams = np.asarray(lams, dtype=complex)
    finite = np.isfinite(lams)
    rho = float(np.max(np.abs(lams), initial=0.0, where=finite)) or 1.0
    b, top, tail = _moment_series(mu, a, g, rho)
    x = np.where(finite, lams, 0.0) / rho
    b_mag, x_mag = np.abs(b), np.abs(x)
    vals, mags = np.zeros_like(x), np.zeros(x.shape)
    for k in range(top, -1, -1):
        np.multiply(vals, x, out=vals)
        np.multiply(mags, x_mag, out=mags)
        if b[k] != 0:  # adding an exact zero changes at most a zero's sign
            vals += b[k]
            mags += b_mag[k]
    vals[~finite] = np.nan
    return vals, 100.0 * np.finfo(float).eps * mags + tail


#: the moment series stops where the rest of it is this fraction of its largest term
_TAIL_FRACTION = 2.0 ** -60


def _log_kernel_coefficients(mu: IndexVector, N: int, rho: float) -> tuple:
    """``(log(|e_n| rho^n), e_n / |e_n|)``, n = 0..N, for the coefficients
    e_n = theta^n / (f_1 ... f_n), f_i = i + a_{(-i) mod r}, of E_mu with
    alpha_0 = 0, by one cumulative sum of log(rho / |f_i|): no underflow."""
    r, n = mu.r, np.arange(N + 1)
    f = n + np.asarray(mu.a)[-n % r]
    f[0] = rho  # e_0 = 1
    theta_n = np.exp(1j * np.pi / r * np.arange(r))  # theta^(n + r) = -theta^n
    return (-np.cumsum(np.log(np.abs(f)) - np.log(rho)),
            np.cumprod(np.sign(f)) * np.concatenate([theta_n, -theta_n])[n % (2 * r)])


def _moment_series(mu: IndexVector, a: float, g: RayTestFunction, rho: float) -> tuple:
    """``(b, n*, tail)``: b_n = coef_n rho^n, n <= N, built in logs; the first
    n* with sum_{m > n*} |b_m| <= ``_TAIL_FRACTION`` max |b_n|; and a bound of
    that sum.  Past N each residue class mod r goes on by the ratio
    rho^r (d+n+a+1) / (r s f_{n+1} ... f_{n+r}), decreasing once 0 < f_i <=
    r (d+i+a), so its value q at N - r + 1 bounds the unbuilt degrees by
    q/(1-q) times the last r built ones.  N doubles from max(64, 2r), at most
    seven times, until that bound is within the fraction."""
    if abs(mu.alphas[0]) > 1e-12:
        raise ParameterError("the transform kernel needs alpha_0 = 0")
    if a < 0:
        raise ParameterError("the weight exponent must satisfy a >= 0")
    r, s, gc, d = mu.r, g.decay_scale, g.poly.coeffs, g.poly.degrees
    if not np.all(np.isfinite(gc)):
        raise ParameterError("the coefficients of the input must be finite")
    if not np.any(gc):
        return np.zeros(1), 0, 0.0
    for N in max(64, 2 * r) * 2 ** np.arange(8):
        log_e, phase = _log_kernel_coefficients(mu, N + r, rho)
        n = np.arange(N + 1)
        log_t = _gamma_moments(d, gc, n, phase[n], d[:, None] + n + g.twist, a, r, s, log_e[n])
        peak = np.max(log_t)
        if peak == np.inf:  # an overflowing log-Gamma
            raise ParameterError(f"the Gamma moments of the transform overflow at the "
                                 f"weight exponent a = {a:g}")
        t = np.abs(gc) @ np.exp(log_t - peak)  # |b_n| <= e^peak t_n
        if peak + np.log(np.sum(t)) > 700.0:
            break
        n0 = N - r + 1
        q = np.exp(min(np.log((d[-1] + n0 + a + 1.0) / (r * s)) + log_e[n0 + r] - log_e[n0], 0.0))
        unbuilt = np.sum(t[n0:]) * q / (1.0 - q) if q < 0.5 else np.inf
        if n0 + 1 + min(mu.a) > 0 and n0 + 1 + max(mu.a) <= r * (d[0] + n0 + a + 1) \
                and unbuilt <= _TAIL_FRACTION * np.max(t):
            tails = np.append(np.cumsum(t[::-1])[::-1][1:], 0.0) + unbuilt  # sum_{m > n} t_m
            top = int(np.argmax(tails <= _TAIL_FRACTION * np.max(t)))
            return phase[n] * (gc @ np.exp(log_t)), top, float(np.exp(peak) * tails[top])
    raise SeriesOverflowError(f"the moment series at |lambda| = {rho:g} cannot be summed "
                              f"in double precision")


def factorization_residual(mu: IndexVector, a: float, g: RayTestFunction,
                           lam: complex) -> VerificationReport:
    """F_mu g(lam), by the exact moment series, against F_r(|x|^a V^T g)(lam),
    by ray quadrature of the transposed transmutation.

    Exact whenever V exp(theta lam x) reproduces the kernel at lam, hence
    asserted for the classical r = 2 family and measured otherwise (the
    correction terms of V do not rescale with lam for r >= 3).
    """
    lhs = complex(moment_transform(mu, a, g, [lam])[0][0])
    vtg = build_V_star(mu, a, n_nodes=48, conjugate=False)(g)

    def weighted(m, t):
        # the map's fn reads every ray of m off one V* evaluation
        return t ** a * vtg._fn(m, t)

    rhs = f_r_transform(_AllRayMap(weighted), lam, a=0.0, n_nodes=200, c=mu.cyclic)
    scale = max(abs(lhs), abs(rhs), 1.0)
    exact = _kernel_map_exact(mu)
    return make_report(
        check_id="transform.factorization",
        params={"r": mu.r, "alphas": list(mu.alphas), "a": a, "lam": complex(lam)},
        residual=abs(lhs - rhs) / scale,
        tolerance=1e-6,
        kind="residual-below" if exact else KIND_MEASURED,
        notes=[] if exact else ["kernel map fails off lam = 1 for this index family"],
    )


def eigen_property_check(mu: IndexVector, a: float, g: RayTestFunction,
                         lam: complex) -> VerificationReport:
    """Residual of F(D g)(lam) + theta lam F(g)(lam), normalized, with both
    transforms from the exact moment series.

    Exact when the bilinear transpose of D is -D (r = 2 with a = 2 alpha + 1);
    otherwise the residual simply measures how far that adjoint identity
    fails for the chosen a.
    """
    lhs = complex(moment_transform(mu, a, ray_dunkl(mu, g), [lam])[0][0])
    rhs = complex(moment_transform(mu, a, g, [lam])[0][0])
    scale = max(abs(lhs), abs(rhs), 1.0)
    exact = mu.r == 2 and abs(a - mu.a[1]) < 1e-12 and abs(mu.a[0]) < 1e-12
    return make_report(
        check_id="transform.eigen_property",
        params={"r": mu.r, "alphas": list(mu.alphas), "a": a, "lam": complex(lam)},
        residual=abs(lhs + mu.cyclic.theta * lam * rhs) / scale,
        tolerance=1e-6,
        kind="residual-below" if exact else KIND_MEASURED,
    )


def grade_transport_check(g: RayTestFunction, k: int, mu: IndexVector,
                          a: float) -> VerificationReport:
    """Moment-series transform samples on the 16-point lambda circle of
    radius 1.5, DFT-fit as a polynomial of degree 15, then measure the
    energy off the residue class of grade r - k (degrees d = k mod r)."""
    r = mu.r
    n_lambda = 16
    lams = 1.5 * np.exp(2j * np.pi * np.arange(n_lambda) / n_lambda)
    samples, _ = moment_transform(mu, a, g, lams)
    coeffs = np.fft.fft(samples) / n_lambda  # c_d * radius^d
    energy = np.abs(coeffs)
    total = float(np.max(energy)) or 1.0
    bad = [energy[d] for d in range(n_lambda) if d % r != k % r]
    return make_report(
        check_id="transform.grade_transport",
        params={"r": r, "alphas": list(mu.alphas), "a": a, "input_grade": k},
        residual=float(max(bad) / total),
        tolerance=1e-6,
    )


def dunkl_transform_inverse(mu: IndexVector, a: float, Ghat, x: float,
                            grade_k: int, cshift: float = 1.0, T: float = 40.0) -> complex:
    """Inverse transform on the r = 2 path: contour-invert the Laplace-type
    transform, divide the |x|^a weight, and undo the transposed transmutation
    by collocation.

    For g of grade k (parity (-1)^k for r = 2) the half-line Fourier split of
    the bilinear transform gives u(t) = t^a (V^T g)(t) = L_theta^{-1}[Ghat](t)
    on t > 0; the remaining Volterra-type equation along the ray is solved on
    a 72-point Chebyshev grid on (0, grid_max] by polynomial collocation,
    with 48-node quadrature for R*.

    The contour integral (``laplace_theta_inverse`` at every grid point) is
    a trapezoid sum on [-T, T] whose step dy puts the Poisson-summation
    aliases of the preimage at multiples of 2 pi/dy >= 4 grid_max, so none
    reaches the collocation grid: n = ceil(4 T grid_max / pi) + 1 nodes, 489
    at the default T.
    """
    if mu.r != 2:
        raise ParameterError("the inversion round trip is implemented for r = 2 only")
    if abs(mu.alphas[0]) > 1e-12:
        raise ParameterError("inversion needs alpha_0 = 0")
    alpha = mu.alphas[1]
    beta = alpha + 0.5
    grid_points = 72
    grid_max = _auto_Tmax(2, 1.0, 0.0)
    # Chebyshev grid on (0, grid_max]
    j = np.arange(grid_points)
    grid = grid_max * 0.5 * (1.0 - np.cos(np.pi * (j + 0.5) / grid_points))
    grid = np.sort(np.clip(grid, 1e-3, None))

    n_contour = int(np.ceil(4.0 * T * grid_max / np.pi)) + 1
    u_vals = laplace_theta_inverse(Ghat, grid, cshift, T, n_contour, c=mu.cyclic)
    w_vals = u_vals / grid ** a  # (V^T g)(t) on the positive ray

    # (V^T g)(t) = c_norm * R*[g](t)          for even g (grade 0),
    #            = c_norm * t * R*[g(s)/s](t) for odd  g (grade 1),
    # where R* carries weight (tau^2-1)^(beta-1) tau^(a-1-2(beta-1)).
    c_norm = MehlerWeight(mu).c_norm
    if grade_k % 2 == 1:
        target = w_vals / (c_norm * grid)
    else:
        target = w_vals / c_norm

    w = _bary_weights(grid)
    h = _solve_ray_volterra(target, grid, w, beta, a, 2, grid_max, 48)
    val = (_bary_matrix(grid, np.array([x], dtype=float), w) @ h)[0]
    if grade_k % 2 == 1:
        val = val * x
    return complex(val)


def _bary_weights(grid: np.ndarray) -> np.ndarray:
    """Barycentric weights with capacity scaling; deterministic."""
    cap = (grid[-1] - grid[0]) / 4.0
    w = np.ones(len(grid))
    for j in range(len(grid)):
        diffs = (grid[j] - grid) / cap
        diffs[j] = 1.0
        w[j] = 1.0 / np.prod(diffs)
    return w


def _bary_matrix(grid: np.ndarray, pts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Interpolation matrix B with (B v)[i] = p_v(pts[i]) for the polynomial
    through (grid, v), from the weights w = ``_bary_weights(grid)``."""
    d = pts[:, None] - grid
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w / d
        B = terms / np.sum(terms, axis=1, keepdims=True)
    # a point on a grid node takes that node's value: a unit row at its
    # first hit
    hit = np.abs(d) < 1e-14
    on_node = np.flatnonzero(np.any(hit, axis=1))
    B[on_node] = 0.0
    B[on_node, np.argmax(hit[on_node], axis=1)] = 1.0
    return B


def _solve_ray_volterra(target: np.ndarray, grid: np.ndarray, w: np.ndarray, beta: float,
                        a: float, r: int, Tdecay: float, n_quad: int) -> np.ndarray:
    """Solve R* h = target for h sampled on the grid: collocation with
    polynomial interpolation of h between grid points, from the barycentric
    weights w = ``_bary_weights(grid)``.

    Rows whose base point lies beyond the decay cutoff (where the true
    solution is below roundoff) become h = 0 constraints; quadrature points
    escaping the grid are treated as zero for the same reason.
    """
    z_cut = (34.0) ** (1.0 / r)  # exp(-t^r) below 2e-15 past this point
    near = grid <= z_cut
    A = np.diag(np.where(near, 0.0, 1.0))
    rhs = np.where(near, np.asarray(target, dtype=complex), 0.0)

    def basis(pts):
        # Lagrange basis of the grid at pts, zero beyond the grid
        B = np.zeros((len(pts), len(grid)))
        inside = pts <= grid[-1]
        B[inside] = _bary_matrix(grid, pts[inside], w)
        return B

    A[near] = apply_R_adjoint(beta, a, basis, grid[near], r, Tdecay, n_quad).real
    sol = np.linalg.solve(A, rhs)
    return sol
