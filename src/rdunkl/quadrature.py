"""Gauss rules on [0, 1] used by all the integral operators.

Every singular endpoint in the package is mapped onto a Jacobi weight
(1 - v)^p v^q before quadrature, which keeps the rules spectrally accurate.

A Jacobi rule is built by Golub-Welsch from the three-term recurrence of
the monic Jacobi polynomials, mapped onto [0, 1]: the nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix, and the weights
are B(p + 1, q + 1) times the squared first components of its
eigenvectors.  The first recurrence coefficients are always written in
their cancelled forms, so p + q = 0 or -1 (or within rounding of them)
divides no rounding residue.

A Legendre rule on [-1, 1] needs no eigensolver.  Newton's method on the
three-term recurrence of P_n, with Halley's correction (P_n'' comes from
Legendre's equation), starts from Tricomi's approximations on the
nonnegative half and converges in two steps (checked for n = 2..1000 and
up to 5000); each weight is 2 / ((1 - x)(1 + x) P_n'(x)^2) with P_n' taken
at the converged node.  The negative half is the mirror image, so the rule
is ascending and exactly symmetric.  This costs O(n^2) time and O(n)
memory, where numpy's companion-matrix eigensolver (``leggauss``, kept as
a test oracle) costs O(n^3) and O(n^2).

Reference rules (Jacobi on [0, 1], Legendre on [-1, 1]) are pure functions
of their parameters, so each is built once per process and shared: their
arrays are read-only, and callers copy before editing in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from ._errors import ParameterError


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def integrate(self, fn) -> complex:
        return complex(np.sum(self.weights * fn(self.nodes)))


def gauss_jacobi_rule(p: float, q: float, n: int) -> QuadratureRule:
    """n-point rule for integral_0^1 f(v) (1-v)^p v^q dv, p, q > -1."""
    if p <= -1.0 or q <= -1.0:
        raise ParameterError(f"Jacobi weight needs p, q > -1, got ({p}, {q})")
    if n < 1:
        raise ParameterError("need at least one node")
    nodes, weights = _jacobi_reference(float(p), float(q), int(n))
    return QuadratureRule(nodes, weights, f"gauss_jacobi({p},{q})")


def gauss_legendre_rule(n: int, a: float = 0.0, b: float = 1.0) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b].

    a and b may be arrays of shape (k, 1); the result then holds k rules,
    one per row, each mapped exactly as the scalar call would map it.
    """
    if n < 1:
        raise ParameterError("need at least one node")
    x, w = _legendre_reference(int(n))
    nodes = 0.5 * (b - a) * (x + 1.0) + a
    weights = 0.5 * (b - a) * w
    return QuadratureRule(nodes, weights, "gauss_legendre")


_RULE_CACHE_SIZE = 256


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _jacobi_reference(p: float, q: float, n: int):
    # recurrence of the monic Jacobi polynomials for (1-x)^p (1+x)^q on
    # [-1, 1]: alpha_0 and beta_1 in the cancelled forms of Gautschi's
    # r_jacobi, the general forms from alpha_1 and from beta_2 on
    s = p + q
    k = np.arange(1.0, n)
    t = 2.0 * k + s
    alpha = np.concatenate(([(q - p) / (s + 2.0)], (q * q - p * p) / (t * (t + 2.0))))
    k, t = k[1:], t[1:]
    beta = np.concatenate((
        [4.0 * (1.0 + p) * (1.0 + q) / ((2.0 + s) ** 2 * (3.0 + s))],
        4.0 * k * (k + p) * (k + q) * (k + s) / (t * t * (t + 1.0) * (t - 1.0))))[: n - 1]
    mass = np.exp(lgamma(p + 1.0) + lgamma(q + 1.0) - lgamma(s + 2.0))  # B(p+1, q+1)
    # the Jacobi matrix of v = (1 + x)/2 on [0, 1]
    nodes, weights = _golub_welsch(0.5 * (1.0 + alpha), 0.5 * np.sqrt(beta), mass)
    return _frozen(nodes), _frozen(weights)


def _golub_welsch(diag: np.ndarray, offdiag: np.ndarray, mass: float):
    """Golub-Welsch: nodes and weights of the Gauss rule of mass ``mass``
    whose Jacobi matrix has ``diag`` and ``offdiag``.  eigh reads only the
    lower triangle, so only that is built."""
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, -1))
    return nodes, mass * vecs[0] ** 2


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _legendre_reference(n: int):
    x, w = _legendre_by_recurrence(n)
    return _frozen(x), _frozen(w)


def _legendre_by_recurrence(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], ascending: the
    (n + 1) // 2 nodes in [0, 1) by Newton-Halley steps on the recurrence,
    mirrored onto the negative half."""
    k = np.arange(1.0, (n + 1) // 2 + 1.0)
    # Tricomi's approximations, largest node first; for odd n the last is 0
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    if n % 2:
        x[-1] = 0.0
    nn = n * (n + 1.0)
    for _ in range(10):
        p, dp = _legendre_and_derivative(n, x)
        u = p / dp
        s = (1.0 - x) * (1.0 + x)
        # Halley's correction of the Newton step u, with
        # P_n''/P_n' = (2x - n(n+1) u) / (1 - x^2) from Legendre's equation
        dx = u / (1.0 - u * (x - 0.5 * nn * u) / s)
        x -= dx
        # the step after this one would be about
        # |dx|^3 (x^2 / (3 s) + (n(n+1) - 2) / 6) / s: stop once that is below rounding
        if np.all(np.abs(dx) ** 3 * (x * x / (3.0 * s) + (nn - 2.0) / 6.0) <= 1e-17 * s):
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    h = n // 2  # the nodes in (0, 1)
    return np.concatenate((-x[:h], x[::-1])), np.concatenate((w[:h], w[::-1]))


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the recurrence
    P_(k+1) = x P_k + k / (k + 1) (x P_k - P_(k-1)), in place."""
    p0, p1 = np.ones_like(x), x.copy()
    t = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, p1, out=t)
        p0 -= t
        p0 *= -k / (k + 1.0)
        p0 += t
        p0, p1 = p1, p0
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
