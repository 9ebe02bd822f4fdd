"""Mehler-type integral representations of j_mu and the r-Dunkl kernel.

Both representations integrate against the product weight

    w_mu(u) = prod_i (1 - u_i^r)^(alpha_i + i/r - 1) u_i^(r-(i+1))

over the unit cube, normalized by c_mu so the integral of 1 reproduces
j_mu(0) = 1.  Dimensions with a_i = 0 carry no mass and are removed; the
substitution v = u^r per remaining dimension turns each factor into the
Jacobi weight (1/r)(1-v)^(alpha_i+i/r-1) v^(-i/r), which Gauss-Jacobi
integrates at spectral accuracy despite the endpoint exponents in (-1, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._errors import ParameterError
from .quadrature import gauss_jacobi_rule
from .reports import VerificationReport, make_report
from .special import IndexVector, cos_r_value, gamma_ratio
from .operators import chain_expansion_coeffs

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


def _tensor_nodes(weight: MehlerWeight, n_nodes: int):
    """Flattened tensor grid: product of u_i = v_i^(1/r) and the combined
    quadrature weight including the per-dimension 1/r substitution factors."""
    r = weight.mu.r
    rules = [gauss_jacobi_rule(p, q, n_nodes) for (p, q) in weight.jacobi_params]
    if not rules:
        return np.array([1.0]), np.array([1.0])
    # broadcasting the 1-d factors keeps only the product grids in memory
    dims = len(rules)
    u_prod = w_prod = np.ones((1,) * dims)
    for k, rl in enumerate(rules):
        shape = [1] * dims
        shape[k] = -1
        u_prod = u_prod * rl.nodes.reshape(shape) ** (1.0 / r)
        w_prod = w_prod * rl.weights.reshape(shape) / r
    return u_prod.ravel(), w_prod.ravel()


def mehler_j(mu: IndexVector, x: complex, n_nodes_per_dim: int = 48) -> complex:
    """j_mu(x) as the weighted integral of cos_r(x u_0 ... u_{r-1})."""
    weight = MehlerWeight(mu)
    u, w = _tensor_nodes(weight, n_nodes_per_dim)
    c = mu.cyclic
    vals = cos_r_value(c, x * u)
    return weight.c_norm * complex(np.sum(w * vals))


def mehler_E(mu: IndexVector, x: complex, n_nodes_per_dim: int = 48) -> complex:
    """The r-Dunkl kernel E_mu(x) by quadrature.

    The integrand expands the lowering chains through the falling powers of
    the derivative:

        T_0 e(x u) + sum_{k=1}^{r-1} sum_{j=0}^{k} (P_j^(k)/theta^j)
                     T_k[ x^(-j) u^(k-j) e(x u) ],

    with e(y) = exp(theta y) and each T_k realized by the r-point average
    over rotated arguments.  The x^(-j) factors sit inside T_k, so x = 0 is
    excluded.
    """
    if x == 0:
        raise ParameterError("kernel quadrature needs x != 0")
    weight = MehlerWeight(mu)
    u, w = _tensor_nodes(weight, n_nodes_per_dim)
    c = mu.cyclic
    r, theta = mu.r, c.theta
    # rotated argument exponentials, one row per group element
    rot = np.array([c.omega_pow(n) for n in range(r)])
    ex = np.exp(theta * np.outer(rot, u) * x)  # shape (r, nodes)
    total = np.zeros(u.shape, dtype=complex)
    # k = 0 term: T_0 e(xu) = (1/r) sum_n e(omega^n x u)
    total += ex.mean(axis=0)
    for k in range(1, r):
        P = chain_expansion_coeffs(mu.a[:k])
        for j in range(k + 1):
            if P[j] == 0.0:
                continue
            # T_k[x^(-j) u^(k-j) e(xu)](x) = (1/r) sum_n omega^(nk) (omega^n x)^(-j) u^(k-j) e(omega^n x u)
            pieces = np.zeros(u.shape, dtype=complex)
            for n in range(r):
                pieces += rot[n] ** k * (rot[n] * x) ** (-j) * ex[n]
            total += (P[j] / theta ** j) * u ** (k - j) * pieces / r
    return weight.c_norm * complex(np.sum(w * total))


def beta_lemma_check(x: float, y: float, r: int, n_nodes: int = 48) -> VerificationReport:
    """r * integral_0^1 (1-u^r)^(y-1) u^(rx-1) du against Gamma(x)Gamma(y)/Gamma(x+y)."""
    if x <= 0 or y <= 0:
        raise ParameterError("the beta integral needs x, y > 0")
    rule = gauss_jacobi_rule(y - 1.0, x - 1.0, n_nodes)
    got = float(np.sum(rule.weights))  # v = u^r turns the integrand into the pure weight
    want = gamma_ratio([x, y], [x + y])
    return make_report(
        check_id="beta_lemma",
        params={"x": x, "y": y, "r": r, "n_nodes": n_nodes},
        residual=abs(got - want) / max(abs(want), 1e-300),
        tolerance=1e-12,
    )
