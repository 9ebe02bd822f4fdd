"""Exact series actions of the lowering, Bessel, and r-Dunkl operators.

On a monomial x^n every operator here is a weighted shift:

    lowering L_a:      x^n -> (n + a) x^(n-1)
    Bessel  Delta_mu:  the chain L_{a_{r-1}} o ... o L_{a_0}
    Dunkl   D_mu:      x^n -> (n + a_{(-n) mod r}) x^(n-1)

The Dunkl operator equals f' + (1/x) sum_k a_k T_k f; the closed weighted
shift above is used for application and the compositional form is the
tests' oracle.  Restricted to grade k, r applications of D equal the lowering
chain started at a_k; on grade 0 that chain is exactly Delta_mu.
"""

from __future__ import annotations

import math

import numpy as np

from ._errors import DomainError, ParameterError
from .series import (
    LaurentSeries,
    add,
    guarded_evaluate,
    project_T,
    scale_argument,
    series_residual,
    shifted,
)
from .special import IndexVector, bessel_j_series, index_shift
from .reports import VerificationReport, make_report


def apply_L(f: LaurentSeries, a: float) -> LaurentSeries:
    """Lowering operator f -> f' + (a/x) f.

    Degree n feeds (n + a) * c_n into degree n - 1, including n = 0 which
    populates the principal part when a != 0.
    """
    return shifted(f, f.coeffs * (f.degrees + a), -1)


def apply_L_chain(f: LaurentSeries, a_list) -> LaurentSeries:
    out = f
    for a in a_list:
        out = apply_L(out, a)
    return out


def apply_Delta(mu: IndexVector, f: LaurentSeries) -> LaurentSeries:
    """Order-r Bessel operator: the lowering chain with a_0 applied first."""
    return apply_L_chain(f, mu.a)


def apply_Delta_rotated(mu: IndexVector, f: LaurentSeries, k: int) -> LaurentSeries:
    """Lowering chain started at a_k (indices cyclic).  This is what r
    applications of the Dunkl operator produce on grade-k input; for k = 0
    it coincides with apply_Delta."""
    r = mu.r
    return apply_L_chain(f, [mu.a[(k + j) % r] for j in range(r)])


def _dunkl_shift(a, f: LaurentSeries) -> LaurentSeries:
    """x^n -> (n + a_{(-n) mod r}) x^(n-1), r = len(a): the weighted shift of
    D_mu (a = mu.a) and of T(kappa) (a = kappa_to_a(kappa))."""
    degs = f.degrees
    weights = degs + np.asarray(a)[(-degs) % len(a)]
    return shifted(f, f.coeffs * weights, -1)


def apply_D(mu: IndexVector, f: LaurentSeries) -> LaurentSeries:
    """r-extension of the Dunkl operator as the closed weighted shift."""
    return _dunkl_shift(mu.a, f)


def dunkl_kernel_series(mu: IndexVector, lam: complex, N: int) -> LaurentSeries:
    """Series of x -> E_mu(lam x), the r-Dunkl kernel at spectral value lam,
    through degree N, all of it trustworthy.

    E_mu = sum_{k<r} theta^(-k) D^k j_mu, and D^k maps the term c_nr x^(nr)
    of j_mu to prod_{l<k} (nr - l + a_l) c_nr x^(nr-k), so the coefficients
    are e_(nr-k) = theta^(-k) (c_nr prod_{l<k} (nr - l + a_l) lam^(nr-k)),
    computed in that order.  The principal part (degrees 1 - r .. -1) is
    nonzero iff alpha_0 != 0; at lam = 0 it raises DomainError.
    """
    r, a, theta = mu.r, mu.a, mu.cyclic.theta
    if lam == 0:  # E_mu(0 x) = 1
        if a[0] != 0.0:
            raise DomainError("cannot substitute x -> 0 into a principal part")
        return LaurentSeries(0, np.eye(1, N + 1)[0], N)
    nr = np.arange(0, N + r, r)
    cur = bessel_j_series(mu, N + r - 1).coeffs[nr]
    coeffs = np.zeros(N + r, dtype=complex)
    for k in range(r):
        deg = nr - k
        keep = deg <= N
        coeffs[deg[keep] + r - 1] = theta ** (-k) * (cur[keep] * lam ** deg[keep])
        cur = cur * (deg + a[k])
    return LaurentSeries(1 - r, coeffs, N)


def dunkl_kernel_values(mu: IndexVector, z):
    """Point values of E_mu at complex arguments by the guarded Horner
    evaluation of its series (``series.guarded_evaluate``)."""
    return guarded_evaluate(lambda n: dunkl_kernel_series(mu, 1.0, n), mu.r, z)


def bessel_eigen_residuals(mu: IndexVector, lam: complex, N: int) -> tuple[float, float]:
    """Residuals of the eigen-equation for the Bessel chain on x -> j_mu(lam x).

    Returns (regular, principal): ``regular`` is the coefficient residual of
    Delta j + lam^r j over degrees >= 0, which vanishes for every admissible
    index.  When alpha_0 != 0 the chain also produces the singular ladder
    term r^r (alpha_0 ... alpha_{r-1}) x^(-r) out of the constant 1 = j(0);
    ``principal`` is the deviation of that coefficient from its closed form
    (zero when some alpha_k = 0 and the equation is a genuine eigen-identity
    on the whole Laurent range).
    """
    r = mu.r
    j = scale_argument(bessel_j_series(mu, N), lam)
    dj = apply_Delta(mu, j)
    rhs = shifted(j, -(lam ** r) * j.coeffs)  # the residual clamps to dj's watermark
    regular = series_residual(dj, rhs, from_degree=0)
    closed = float(r) ** r
    for al in mu.alphas:
        closed *= al
    scale = max(abs(closed), 1.0)
    principal = abs(dj[-r] - closed) / scale
    return regular, principal


def case_recurrence_check(mu: IndexVector, N: int) -> VerificationReport:
    """Ladder relation for D j_mu.

    alpha_0 != 0:  D j_mu = (r alpha_0 / x) j_{mu-1}
    alpha_0 == 0:  D j_mu = -(x/r)^(r-1) j_{mu+1} / prod_{k>=1}(alpha_k + 1)
    """
    r = mu.r
    lhs = apply_D(mu, bessel_j_series(mu, N))
    if abs(mu.alphas[0]) > 1e-12:
        j = bessel_j_series(index_shift(mu, "minus"), N)
        rhs = shifted(j, r * mu.alphas[0] * j.coeffs, -1)
        case = "alpha0_nonzero"
    else:
        j = bessel_j_series(index_shift(mu, "plus"), N)
        denom = 1.0
        for al in mu.alphas[1:]:
            denom *= al + 1.0
        rhs = shifted(j, -j.coeffs / (denom * float(r) ** (r - 1)), r - 1)
        case = "alpha0_zero"
    resid = series_residual(lhs, rhs)
    return make_report(
        check_id=f"case_recurrence.{case}",
        params={"r": r, "alphas": list(mu.alphas), "N": N},
        residual=resid,
        tolerance=1e-12,
    )


def chain_expansion_coeffs(a_prefix) -> list[float]:
    """Coefficients P_0..P_k with

        L_{a_{k-1}} o ... o L_{a_0} = sum_j P_j x^(-j) (d/dx)^(k-j).

    The chain multiplies x^m by G(m) = prod_j (m - j + a_j), and matching
    G against falling factorials at m = 0..k gives a triangular system with
    diagonal s!, solved exactly by forward substitution.  The empty chain
    (k = 0) is the identity, P = [1.0].
    """
    a = [float(v) for v in a_prefix]
    k = len(a)

    def G(m):
        out = 1.0
        for j in range(k):
            out *= m - j + a[j]
        return out

    P = [0.0] * (k + 1)
    P[k] = G(0)
    for s in range(1, k + 1):
        acc = G(s)
        for l in range(s):
            acc -= P[k - l] * (math.factorial(s) // math.factorial(s - l))
        P[k - s] = acc / math.factorial(s)
    return P


def v_terms(mu: IndexVector) -> list[tuple[int, int, complex]]:
    """Every term (k, j, P_j^(k)/theta^j) of the transmutation operator V for
    k = 0..r-1 and j = 0..k, with P^(k) the expansion coefficients of the
    length-k lowering chain L_{a_{k-1}} o ... o L_{a_0}; terms with
    P_j^(k) = 0 are skipped.  The first term is the grade-0 projector term
    (0, 0, 1): the empty chain has P^(0) = (1).  The same list gives the
    Mehler form of the kernel E_mu.  A list, not a generator, so callers may
    read it more than once."""
    theta = mu.cyclic.theta
    terms = []
    for k in range(mu.r):
        P = chain_expansion_coeffs(mu.a[:k])
        for j in range(k + 1):
            if P[j] != 0.0:
                terms.append((k, j, P[j] / theta ** j))
    return terms


def chain_expansion_closed_form(a_prefix) -> list[float]:
    """Diagnostic only: the printed closed form for the expansion
    coefficients, P_{k-s} = (1/s!) sum_j (-1)^(s-j) C(s-j, j) prod_i (a_i+i+j).
    Its binomial convention is ambiguous and it disagrees with the defining
    triangular solve for k >= 2; compare, never trust."""
    a = [float(v) for v in a_prefix]
    k = len(a)
    P = [0.0] * (k + 1)
    for s in range(k + 1):
        acc = 0.0
        for j in range(s + 1):
            prod = 1.0
            for i in range(k):
                prod *= a[i] + i + j
            acc += (-1.0) ** (s - j) * math.comb(s - j, j) * prod
        P[k - s] = acc / math.factorial(s)
    return P


def power_identity_residual(mu: IndexVector, n):
    """For the monomial x^n, compare r-fold Dunkl application against the
    grade-rotated lowering chain and against the fixed Bessel chain.

    Returns (rotated_residual, fixed_delta_residual), both relative, as
    ``series_residual`` gives them on the one-term images.  ``n`` may be a
    degree (a pair of floats) or a 1-d array of distinct degrees (a pair of
    arrays, one entry per degree).  All the monomials ride in one series with
    coefficient 1 at each degree: every operator here is a weighted shift,
    which never merges two degrees, so each coefficient takes exactly the
    arithmetic of its own one-term series and the residuals agree with the
    per-degree calls bit for bit.
    """
    ns = np.atleast_1d(n)
    if ns.ndim != 1 or ns.size == 0 or len(set(ns.tolist())) != ns.size:
        raise ParameterError("degrees must be one integer or a 1-d array of distinct ones")
    r, c = mu.r, mu.cyclic
    n_min = int(ns.min())
    coeffs = np.zeros(int(ns.max()) - n_min + 1, dtype=complex)
    coeffs[ns - n_min] = 1.0
    f = LaurentSeries(n_min, coeffs)
    dpow = f
    for _ in range(r):
        dpow = apply_D(mu, dpow)
    # grade k (degrees n = -k mod r) takes the chain started at a_k
    rot = apply_Delta_rotated(mu, project_T(f, 0, c), 0)
    for k in range(1, r):
        rot = add(rot, apply_Delta_rotated(mu, project_T(f, k, c), k))
    fixed = apply_Delta(mu, f)
    # every image starts r degrees below f, so x^n's coefficient sits at n - n_min
    at = ns - n_min
    lhs = dpow.coeffs[at]
    rot_resid = _relative_gap(lhs, rot.coeffs[at])
    fixed_resid = _relative_gap(lhs, fixed.coeffs[at])
    if np.ndim(n) == 0:
        return float(rot_resid[0]), float(fixed_resid[0])
    return rot_resid, fixed_resid


def _relative_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|, 1e-300) elementwise: ``series_residual`` of
    one-term series, magnitudes by hypot as there."""
    d = a - b
    scale = np.maximum(np.maximum(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag)), 1e-300)
    return np.hypot(d.real, d.imag) / scale
