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
from .operators import v_terms

_A_ZERO_TOL = 1e-12
#: most tensor nodes evaluated at once; bounds the quadrature's working memory
_BLOCK = 2 ** 15


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


def _grid_product(nodes, weights, r, u, w):
    """Flat product grid of the 1-d factors, each point of the prefix grid
    (u, w) multiplied left to right by every later factor in C order."""
    for a, b in zip(nodes, weights):
        u = (u[:, None] * a).ravel()
        w = (w[:, None] * b / r).ravel()
    return u, w


def _tensor_nodes(weight: MehlerWeight, n_nodes: int):
    """Flattened tensor grid in blocks of at most _BLOCK nodes: products of
    u_i = v_i^(1/r) and the combined quadrature weights including the
    per-dimension 1/r substitution factors.

    The trailing dimensions that fit in a block form the inner grid; each
    block multiplies a run of outer prefix products into it, so the
    concatenated blocks are the full C-order grid, bit for bit.
    """
    r = weight.mu.r
    rules = [gauss_jacobi_rule(p, q, n_nodes) for (p, q) in weight.jacobi_params]
    if not rules:
        yield np.array([1.0]), np.array([1.0])
        return
    nodes = [rl.nodes ** (1.0 / r) for rl in rules]
    weights = [rl.weights for rl in rules]
    split, inner = len(rules), 1
    while split > 0 and inner * n_nodes <= _BLOCK:
        split -= 1
        inner *= n_nodes
    u_out, w_out = _grid_product(nodes[:split], weights[:split], r, np.ones(1), np.ones(1))
    rows = _BLOCK // inner
    for lo in range(0, u_out.size, rows):
        yield _grid_product(nodes[split:], weights[split:], r,
                            u_out[lo:lo + rows], w_out[lo:lo + rows])


def mehler_j(mu: IndexVector, x: complex, n_nodes_per_dim: int = 48) -> complex:
    """j_mu(x) as the weighted integral of cos_r(x u_0 ... u_{r-1})."""
    weight = MehlerWeight(mu)
    c = mu.cyclic
    total = 0.0
    for u, w in _tensor_nodes(weight, n_nodes_per_dim):
        total += np.sum(w * cos_r_value(c, x * u))
    return weight.c_norm * complex(total)


def _kernel_coeffs(mu: IndexVector, x: complex) -> np.ndarray:
    """c_0..c_{r-1} of the grouped kernel integrand sum_m c_m u^m S_m: the
    chain terms (P_j^(k)/theta^j) x^(-j) u^(k-j) collected by m = k - j,
    including the k = 0 term, and divided by r from the group average."""
    coef = np.zeros(mu.r, dtype=complex)
    coef[0] = 1.0
    for k, j, pj in v_terms(mu):
        coef[k - j] += pj * complex(x) ** (-j)
    return coef / mu.r


def mehler_E(mu: IndexVector, x: complex, n_nodes_per_dim: int = 48) -> complex:
    """The r-Dunkl kernel E_mu(x) by quadrature.

    The integrand expands the lowering chains through the falling powers of
    the derivative:

        T_0 e(x u) + sum_{k=1}^{r-1} sum_{j=0}^{k} (P_j^(k)/theta^j)
                     T_k[ x^(-j) u^(k-j) e(x u) ],

    with e(y) = exp(theta y) and each T_k realized by the r-point average
    over rotated arguments.  Since T_k[x^(-j) g](x) = (1/r) sum_n
    omega^(n(k-j)) x^(-j) g(omega^n x), the terms group by m = k - j into

        sum_{m=0}^{r-1} c_m u^m S_m,   S_m = sum_n omega^(nm) e(omega^n x u),

    with c_m from _kernel_coeffs.  The quadrature accumulates the moments
    A[n, m] = sum w u^m e(omega^n x u) block by block.  For real x the rows
    n and r-1-n are complex conjugates, so only the first ceil(r/2) rows are
    integrated.  The x^(-j) factors sit inside T_k, so x = 0 is excluded.
    """
    if x == 0:
        raise ParameterError("kernel quadrature needs x != 0")
    weight = MehlerWeight(mu)
    c = mu.cyclic
    r = mu.r
    real = np.isrealobj(x)
    rows = (r + 1) // 2 if real else r
    rot = np.array([c.theta * c.omega_pow(n) * x for n in range(rows)])
    A = np.zeros((rows, r), dtype=complex)
    for u, w in _tensor_nodes(weight, n_nodes_per_dim):
        A += np.exp(np.outer(rot, u)) @ (np.vander(u, r, increasing=True) * w[:, None])
    if real:
        A = np.concatenate([A, A[r - 1 - rows::-1].conj()])
    omega_nm = np.array([[c.omega_pow(n * m) for m in range(r)] for n in range(r)])
    S = np.sum(omega_nm * A, axis=0)
    return weight.c_norm * complex(np.sum(_kernel_coeffs(mu, x) * S))


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
