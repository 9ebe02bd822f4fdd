"""The r-Riemann-Liouville operator, its inverses, and its adjoint.

R_alpha g(x) = integral_0^1 g(xt) (1-t^r)^(alpha-1) dt is diagonal on
monomials with factor

    l_n^alpha = (1/r) Gamma((n+1)/r) Gamma(alpha) / Gamma(alpha + (n+1)/r),

so the series form is exact; the quadrature form and the derivative-form
inverse exist to validate the integral statements numerically.

The derivative-form inverse implemented here carries the constant
r^2 / (Gamma(k+alpha) Gamma(1-alpha)).  For k >= 1 this differs from the
printed constant r^2 / (Gamma(k+1) Gamma(alpha) Gamma(1-alpha)) by the
factor Gamma(k+1)Gamma(alpha)/Gamma(k+alpha); only the corrected constant
reproduces g on monomials (both agree at k = 0).  The same Beta factor
appears in the composition law, see composition_law_check.
"""

from __future__ import annotations

import warnings
from math import lgamma

import numpy as np

from ._errors import ConvergenceWarning, DomainError, ParameterError, PoleError, SingularError
from .quadrature import gauss_jacobi_rule, gauss_legendre_rule
from .reports import VerificationReport, make_report
from .series import LaurentSeries, series_residual, shifted
from .special import (IndexVector, _gamma_signs, _nonpositive_integers, bessel_j_series,
                      cos_r_series, gamma_ratio)


def l_coefficient(n: int, alpha: float, r: int) -> float:
    """Diagonal factor of R_alpha on x^n."""
    if alpha <= 0:
        raise ParameterError("R_alpha needs alpha > 0")
    return (1.0 / r) * gamma_ratio([(n + 1.0) / r, alpha], [alpha + (n + 1.0) / r])


def l_coefficients(degrees, alpha: float, r: int) -> np.ndarray:
    """l_n^alpha at every degree n of ``degrees``, bit for bit
    ``l_coefficient`` at each: the same log-gamma sum, exp, sign and factor
    1/r in the same order, with the exp, sign and scaling done on arrays."""
    if alpha <= 0:
        raise ParameterError("R_alpha needs alpha > 0")
    u = (np.asarray(degrees, dtype=float) + 1.0) / r
    v = alpha + u
    sign, zero = 1.0, None
    if np.any(u <= 0.0):  # negative degrees: Gamma(u) and Gamma(v) may change sign or have poles
        pole = _nonpositive_integers(u)
        if np.any(pole):
            raise PoleError(f"Gamma({u[pole][0]}) pole in a ratio numerator")
        zero = _nonpositive_integers(v)  # Gamma(v) has a pole: l_n = 0
        sign = _gamma_signs(u) * _gamma_signs(v)  # Gamma(alpha) > 0
        v = np.where(zero, 1.0, v)
    lg_u = np.array([lgamma(a) for a in u.tolist()])
    lg_v = np.array([lgamma(b) for b in v.tolist()])
    out = (1.0 / r) * (sign * np.exp(lg_u + lgamma(alpha) - lg_v))
    return out if zero is None else np.where(zero, 0.0, out)


def _l_factors(alpha: float, f: LaurentSeries, r: int) -> np.ndarray:
    """l_n^alpha at each stored degree n of a series without principal part,
    and 1 where Gamma((n+1)/r) has its pole (n = -1 mod r, n < 0): the
    coefficients there are zero and pass through unscaled."""
    if f.has_principal_part(1e-300):
        raise DomainError("R_alpha is only defined on series without a principal part")
    degs = f.degrees
    pole = (degs < 0) & ((degs + 1) % r == 0)
    fac = np.ones(len(degs))
    fac[~pole] = l_coefficients(degs[~pole], alpha, r)
    return fac


def apply_R_series(alpha: float, f: LaurentSeries, r: int) -> LaurentSeries:
    return shifted(f, f.coeffs * _l_factors(alpha, f, r))


def apply_R_quadrature(alpha: float, g, x: complex | np.ndarray, r: int,
                       n_nodes: int = 48) -> complex | np.ndarray:
    """R_alpha g(x) by Gauss-Jacobi in t.

    The weight splits as (1-t^r)^(alpha-1) = (1-t)^(alpha-1) Q(t)^(alpha-1)
    with Q = 1 + t + ... + t^(r-1) smooth, so only the t = 1 endpoint moves
    into the Jacobi weight and analytic integrands keep spectral accuracy.

    x may be a number (the result is complex) or a 1-d array of points (one
    value per point, from a single call of g on every x t).
    """
    rule = gauss_jacobi_rule(alpha - 1.0, 0.0, n_nodes)
    t = rule.nodes
    out = _row_sums(g, np.outer(x, t), rule.weights * _Q(t, r) ** (alpha - 1.0))
    return complex(out[0]) if np.ndim(x) == 0 else out


def _Q(t: np.ndarray, r: int) -> np.ndarray:
    """Q(t) = 1 + t + ... + t^(r-1), the smooth factor of 1 - t^r = (1 - t) Q(t)."""
    Q = np.ones_like(t)
    for j in range(1, r):
        Q += t ** j
    return Q


def _row_sums(g, points: np.ndarray, weights: np.ndarray, dtype=complex) -> np.ndarray:
    """sum_j w_ij g(points[i, j]) for each row i, with g called once on the
    flattened points and its values read as dtype; weights holds w_ij, or one
    row w_j shared by every i.  Trailing axes of g's values are kept."""
    vals = np.asarray(g(points.ravel()), dtype=dtype)
    vals = vals.reshape(points.shape + vals.shape[1:])
    w = weights.reshape(weights.shape + (1,) * (vals.ndim - 2))
    return np.sum(w * vals, axis=1)


def apply_R_inverse_series(order: float, f: LaurentSeries, r: int) -> LaurentSeries:
    """Exact inverse of apply_R_series: divides each coefficient by l_n."""
    if order <= 0:
        raise ParameterError("inverse order must be positive")
    fac = _l_factors(order, f, r)
    if np.any(fac == 0.0):
        n = int(f.degrees[np.argmax(fac == 0.0)])
        raise SingularError(f"R_{order} is not invertible on degree {n}: its factor l_{n} vanishes")
    return shifted(f, f.coeffs / fac)


def _inner_integrals(k: int, alpha: float, g, xs: list, r: int, n_nodes: int) -> list:
    # integral_0^x g(u)(x^r-u^r)^(-alpha) u^((k+alpha)r) du at each x of xs;
    # with u = x s both endpoint factors (1-s)^(-alpha) and s^((k+alpha)r)
    # join the Jacobi weight and the smooth Q(s)^(-alpha) stays in the
    # integrand.  One call of g on every x s, one real row sum per x.
    rule = gauss_jacobi_rule(-alpha, (k + alpha) * r, n_nodes)
    s = rule.nodes
    sums = _row_sums(g, np.outer(xs, s), rule.weights * _Q(s, r) ** (-alpha), dtype=float)
    return [float(x ** (1 + k * r) * v) for x, v in zip(xs, sums)]


def apply_R_inverse_derivative_form(
    k: int,
    alpha: float,
    g,
    x: float,
    r: int,
    n_nodes: int = 48,
) -> float:
    """Inversion of R_{k+alpha} through the (k+1)-fold derivative of a
    weighted integral; numerically delicate by design, it validates the
    analytic inversion formula rather than serving as the production inverse.

    The k+1 nested first derivatives of (1/(r x^(r-1))) d/dx are taken by
    central differences of step 1e-3 x with one level of Richardson
    extrapolation.  The differences read the weighted integral at 4^(k+1)
    stencil points; all of them come from one quadrature pass (one call of
    g) before the differences are taken.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError("derivative-form inverse needs 0 < alpha < 1")
    if k < 0:
        raise ParameterError("k must be a nonnegative integer")
    if x <= 0:
        raise ParameterError("evaluation point must be positive")
    h0 = 1e-3 * x

    def deriv_op(fn):
        # (1/(r x^(r-1))) d/dx with Richardson one level deep
        def d(xx, h):
            return (fn(xx + h) - fn(xx - h)) / (2.0 * h)

        def out(xx):
            coarse = d(xx, h0)
            fine = d(xx, h0 / 2.0)
            val = (4.0 * fine - coarse) / 3.0
            if abs(fine - coarse) > 1e-4 * (1.0 + abs(val)):
                warnings.warn(
                    "finite-difference stencil lost more than half the target digits",
                    ConvergenceWarning,
                )
            return val / (r * xx ** (r - 1))

        return out

    def stencil(F):
        op = F
        for _ in range(k + 1):
            op = deriv_op(op)
        return op(x)

    # a first pass with a recording F collects the stencil points (equal
    # values raise no warning); the second reads the tabulated integrals in
    # the same order
    points = []

    def record(xx):
        points.append(xx)
        return 0.0

    stencil(record)
    values = iter(_inner_integrals(k, alpha, g, points, r, n_nodes))
    const = r ** 2 / (gamma_ratio([k + alpha], []) * gamma_ratio([1.0 - alpha], []))
    return const * x ** (r - 1) * stencil(lambda xx: next(values))


def apply_R_adjoint(
    alpha: float,
    a: float,
    g,
    u: float | np.ndarray,
    r: int,
    Tmax: float = 8.0,
    n_nodes: int = 48,
) -> complex | np.ndarray:
    """Adjoint of R_alpha for the a-weighted ray product:

        R*_alpha g(u) = integral_1^inf g(u t) (t^r - 1)^(alpha-1) t^(a-1-r(alpha-1)) dt.

    The endpoint singularity at t = 1 is absorbed by s = t^r - 1 over
    t in [1, 2]; the smooth remainder uses Gauss-Legendre in the absolute
    coordinate w = u t on [2u, Tmax], so small u keeps the integrand
    resolved, and is skipped where 2u >= Tmax.  The caller guarantees g
    decays fast enough that the truncated tail is negligible.

    u may be a number (the result is complex) or a 1-d array of base points
    (one value per point).  g is called once per part on a 1-d array of
    absolute points; values with trailing axes (one column per function of a
    basis, say) give results with the same trailing axes.
    """
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0):
        raise ParameterError("adjoint evaluation needs u > 0")
    expo = a - 1.0 - r * (alpha - 1.0)
    # part A: t in [1, 2] via s = t^r - 1 in [0, 2^r - 1]; SA^alpha absorbs s^(alpha-1)
    SA = 2.0 ** r - 1.0
    ruleA = gauss_jacobi_rule(0.0, alpha - 1.0, n_nodes)
    s = SA * ruleA.nodes
    wA = SA ** alpha * ruleA.weights * (1.0 + s) ** ((expo + 1.0 - r) / r) / r
    out = _row_sums(g, np.outer(u, (1.0 + s) ** (1.0 / r)), wA)
    # part B: one Gauss-Legendre rule per base point with 2u < Tmax
    tail = 2.0 * u < Tmax
    if np.any(tail):
        ub = u[tail, None]
        ruleB = gauss_legendre_rule(n_nodes, 2.0 * ub, Tmax)
        tb = ruleB.nodes / ub
        wB = ruleB.weights * (tb ** r - 1.0) ** (alpha - 1.0) * tb ** expo / ub
        out[tail] += _row_sums(g, ruleB.nodes, wB)
    return complex(out[0]) if scalar else out


def product_factorization_check(mu: IndexVector, N: int, case: str = "") -> VerificationReport:
    """j_mu against the chain of conjugated fractional means applied to
    cos_r, with order parameters beta_i = alpha_i + i/r over the dimensions
    with a_i != 0.  Exact on coefficients; the residual measures roundoff.
    A nonempty ``case`` names how mu was drawn and suffixes the check id.
    """
    from .mehler import MehlerWeight
    from .transmutation import fractional_mean_chain

    r = mu.r
    weight = MehlerWeight(mu)
    chain = cos_r_series(mu.cyclic, N)
    fac = fractional_mean_chain(weight, chain.degrees)
    lhs = shifted(chain, weight.c_norm * chain.coeffs * fac)
    rhs = bessel_j_series(mu, N)
    resid = series_residual(lhs, rhs)
    return make_report(
        check_id=f"rl.product_factorization.{case}" if case else "rl.product_factorization",
        params={"r": r, "alphas": list(mu.alphas), "N": N},
        residual=resid,
        tolerance=1e-13,
    )


def composition_law_check(k: int, alpha: float, r: int) -> VerificationReport:
    """x^(-kr) R_alpha (d/dx) x^(1+rk) R_{k+1} against R_{k+alpha} on
    the monomials of degree 0..24.  The two sides agree up to the constant
    Gamma(k+1)Gamma(alpha)/Gamma(k+alpha) (equal to 1 at k = 0), which is
    included here; the raw law as printed holds only for k = 0.
    """
    factor = gamma_ratio([k + 1.0, alpha], [k + alpha])
    n = np.arange(25)
    lhs = l_coefficients(n, k + 1.0, r) * (n + 1.0 + r * k) * l_coefficients(n + r * k, alpha, r)
    rhs = factor * l_coefficients(n, k + alpha, r)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))
    return make_report(
        check_id=f"rl.composition_law.k{k}",
        params={"k": k, "alpha": alpha, "r": r, "beta_factor": factor},
        residual=worst,
        tolerance=1e-12,
        notes=["lhs = beta_factor * R_{k+alpha}; beta_factor is 1 only at k = 0"],
    )
