"""Mehler-type integral representations of j_mu and the r-Dunkl kernel.

Both representations integrate against the product weight

    w_mu(u) = prod_i (1 - u_i^r)^(alpha_i + i/r - 1) u_i^(r-(i+1))

over the unit cube, normalized by c_mu so the integral of 1 reproduces
j_mu(0) = 1.  Dimensions with a_i = 0 carry no mass and are removed; the
substitution v = u^r per remaining dimension turns each factor into the
Jacobi weight (1/r)(1-v)^(alpha_i+i/r-1) v^(-i/r), which Gauss-Jacobi
integrates at spectral accuracy despite the endpoint exponents in (-1, 0).

Both integrands depend on the point of the cube only through the product
P = prod_i v_i = (u_0 ... u_{r-1})^r, so the quadrature is one n-point
Gauss rule for the distribution of P under the weight, built dimension by
dimension from the 1-d Gauss-Jacobi rules (Gautschi, Orthogonal
Polynomials: Computation and Approximation, 2004, section 2.2).  It has the
tensor rule's degree of exactness, 2n - 1 in P, with n nodes instead of
n^dims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._errors import ParameterError
from .quadrature import (_RULE_CACHE_SIZE, _frozen, _golub_welsch, _jacobi_reference,
                         gauss_jacobi_rule)
from .reports import VerificationReport, make_report
from .riemann_liouville import _Q
from .special import IndexVector, cos_r_value, gamma_ratio
from .operators import v_terms

_A_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class MehlerWeight:
    """Included dimensions, their Jacobi parameters after v = u^r, and the
    normalization constant over the included dimensions only."""

    mu: IndexVector
    included: tuple = field(init=False)
    jacobi_params: tuple = field(init=False)
    c_norm: float = field(init=False)

    def __post_init__(self):
        mu = self.mu
        r = mu.r
        included = tuple(i for i in range(r) if abs(mu.a[i]) > _A_ZERO_TOL)
        params = []
        c = 1.0
        for i in included:
            p = mu.alphas[i] + i / r - 1.0
            q = -i / r
            if p <= -1.0:
                raise ParameterError(
                    f"dimension {i}: alpha_{i} + {i}/{r} must be positive, "
                    f"got {mu.alphas[i] + i / r}"
                )
            params.append((p, q))
            c *= r * gamma_ratio([mu.alphas[i] + 1.0], [mu.alphas[i] + i / r, 1.0 - i / r])
        object.__setattr__(self, "included", included)
        object.__setattr__(self, "jacobi_params", tuple(params))
        object.__setattr__(self, "c_norm", c)

    def product_rule(self, n: int):
        """Read-only nodes u and weights W of the n-point Gauss rule in the
        product variable u^r = prod_i v_i; W sums to 1 / c_norm."""
        if n < 1:
            raise ParameterError("need at least one node")
        return _product_reference(self.mu.r, self.jacobi_params, int(n))


def _gauss_reduce(P: np.ndarray, W: np.ndarray, n: int):
    """n-point Gauss rule of the discrete measure sum_k W_k delta(P_k).

    Lanczos on diag(P) from the start vector sqrt(W / sum W), with full
    reorthogonalization, gives the n x n Jacobi matrix of the measure, and
    ``quadrature._golub_welsch`` turns it into the rule of mass sum(W).
    The measure has more than n support points, so no beta vanishes.
    """
    total = W.sum()
    Q = np.empty((n, P.size))
    Q[0] = np.sqrt(W / total)
    alpha, beta = np.empty(n), np.empty(n - 1)
    for k in range(n):
        v = P * Q[k]
        alpha[k] = Q[k] @ v
        if k == n - 1:
            break
        v -= alpha[k] * Q[k]
        if k:
            v -= beta[k - 1] * Q[k - 1]
        v -= Q[:k + 1].T @ (Q[:k + 1] @ v)
        beta[k] = np.linalg.norm(v)
        Q[k + 1] = v / beta[k]
    return _golub_welsch(alpha, beta, total)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _product_reference(r: int, jacobi_params: tuple, n: int):
    """n-point Gauss rule for the pushforward of the product weight under
    P = prod_i v_i: read-only (u = P^(1/r), W).

    Each included dimension multiplies the current rule by its Gauss-Jacobi
    rule (weights / r from the substitution v = u^r), and the n^2 products are
    reduced back to n points.  The rule integrates every polynomial of degree
    <= 2n - 1 in P exactly, the same degree as the tensor rule.  It reads the
    1-d rules from quadrature's reference cache, below the public
    gauss_jacobi_rule, so the public calls of a Mehler evaluation do not
    depend on whether this cache already holds its rule.
    """
    P, W = np.ones(1), np.ones(1)
    for p, q in jacobi_params:
        v, w = _jacobi_reference(float(p), float(q), n)
        P = np.outer(P, v).ravel()
        W = np.outer(W, w / r).ravel()
        if P.size > n:
            P, W = _gauss_reduce(P, W, n)
    return _frozen(P ** (1.0 / r)), _frozen(W)


def mehler_j(mu: IndexVector, x: complex, n_nodes_per_dim: int = 48) -> complex:
    """j_mu(x) as the weighted integral of cos_r(x u_0 ... u_{r-1})."""
    weight = MehlerWeight(mu)
    u, w = weight.product_rule(n_nodes_per_dim)
    return weight.c_norm * complex(np.sum(w * cos_r_value(mu.cyclic, x * u)))


def _kernel_coeffs(mu: IndexVector, x: complex) -> np.ndarray:
    """c_0..c_{r-1} of the grouped kernel integrand sum_m c_m u^m S_m: the
    terms (P_j^(k)/theta^j) x^(-j) u^(k-j) of ``v_terms``, the grade-0 term
    (0, 0, 1) among them, collected by m = k - j and divided by r from the
    group average."""
    coef = np.zeros(mu.r, dtype=complex)
    for k, j, pj in v_terms(mu):
        coef[k - j] += pj * complex(x) ** (-j)
    return coef / mu.r


def mehler_E(mu: IndexVector, x: complex, n_nodes_per_dim: int = 48) -> complex:
    """The r-Dunkl kernel E_mu(x) by quadrature.

    The integrand expands the lowering chains through the falling powers of
    the derivative:

        sum_{k=0}^{r-1} sum_{j=0}^{k} (P_j^(k)/theta^j) T_k[ x^(-j) u^(k-j) e(x u) ],

    with P^(0) = (1), e(y) = exp(theta y) and each T_k realized by the
    r-point average over rotated arguments.  Since T_k[x^(-j) g](x) = (1/r) sum_n
    omega^(n(k-j)) x^(-j) g(omega^n x), the terms group by m = k - j into

        sum_{m=0}^{r-1} c_m u^m S_m,   S_m = sum_n omega^(nm) e(omega^n x u),

    with c_m from _kernel_coeffs.  The quadrature forms the moments
    A[n, m] = sum w u^m e(omega^n x u) over the product-variable rule.  For
    real x the rows n and r-1-n are complex conjugates, so only the first
    ceil(r/2) rows are integrated.  The x^(-j) factors sit inside T_k, so
    x = 0 is excluded.
    """
    if x == 0:
        raise ParameterError("kernel quadrature needs x != 0")
    weight = MehlerWeight(mu)
    c = mu.cyclic
    r = mu.r
    real = np.isrealobj(x)
    rows = (r + 1) // 2 if real else r
    rot = np.array([c.theta * c.omega_pow(n) * x for n in range(rows)])
    u, w = weight.product_rule(n_nodes_per_dim)
    A = np.exp(np.outer(rot, u)) @ (np.vander(u, r, increasing=True) * w[:, None])
    if real:
        A = np.concatenate([A, A[r - 1 - rows::-1].conj()])
    omega_nm = np.array([[c.omega_pow(n * m) for m in range(r)] for n in range(r)])
    S = np.sum(omega_nm * A, axis=0)
    return weight.c_norm * complex(np.sum(_kernel_coeffs(mu, x) * S))


def beta_lemma_check(x: float, y: float, r: int, n_nodes: int = 48) -> VerificationReport:
    """r * integral_0^1 (1-u^r)^(y-1) u^(rx-1) du against Gamma(x)Gamma(y)/Gamma(x+y).

    Taken in u, not in v = u^r (where it is a Jacobi rule's own mass):
    1 - u^r = (1-u) Q(u) with Q = 1 + u + ... + u^(r-1), so the integral is
    r B(y, rx) times the mean of the smooth Q^(y-1) under the rule for
    (1-u)^(y-1) u^(rx-1).  The rule's mass B(y, rx) comes from the same
    Gamma formula as the right side, so the mean divides by the weights'
    sum: the check sees the nodes and how the mass is split between them,
    not the eigensolver's rounding of the total."""
    if x <= 0 or y <= 0:
        raise ParameterError("the beta integral needs x, y > 0")
    rule = gauss_jacobi_rule(y - 1.0, r * x - 1.0, n_nodes)
    mean = float(np.sum(rule.weights * _Q(rule.nodes, r) ** (y - 1.0)) / np.sum(rule.weights))
    got = r * gamma_ratio([y, r * x], [y + r * x]) * mean
    want = gamma_ratio([x, y], [x + y])
    return make_report(
        check_id="beta_lemma",
        params={"x": x, "y": y, "r": r, "n_nodes": n_nodes},
        residual=abs(got - want) / max(abs(want), 1e-300),
        tolerance=1e-12,
    )
