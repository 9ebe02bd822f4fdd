"""Vector-index Bessel functions, the r-trigonometric cosine, and the
gamma-function utilities behind them.

The Bessel function of vector index mu = (alpha_0, ..., alpha_{r-1}) is the
entire series

    j_mu(x) = sum_n (-1)^n x^(n r) / [ (alpha_0+1)_n ... (alpha_{r-1}+1)_n r^(n r) ]

with j_mu(0) = 1.  It is the grade-0 eigenfunction of the order-r Bessel
operator.  For r = 2 and mu = (0, alpha) it reduces to the classical
normalized Bessel function, and for alpha_k = -k/r it degenerates to cos_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import ParameterError, PoleError
from .series import CyclicStructure, LaurentSeries, exp_series, guarded_evaluate, project_T

_NEG_INT_TOL = 1e-12


def _is_nonpositive_integer(x: float) -> bool:
    return x <= _NEG_INT_TOL and abs(x - round(x)) < _NEG_INT_TOL


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) off its poles: negative on (-2k-1, -2k)."""
    return 1.0 if x > 0 or math.floor(x) % 2 == 0 else -1.0


def _nonpositive_integers(x: np.ndarray) -> np.ndarray:
    """``_is_nonpositive_integer`` at every entry of x."""
    return (x <= _NEG_INT_TOL) & (np.abs(x - np.round(x)) < _NEG_INT_TOL)


def _gamma_signs(x: np.ndarray) -> np.ndarray:
    """``_gamma_sign`` at every entry of x."""
    return np.where((x > 0) | (np.floor(x) % 2 == 0), 1.0, -1.0)


@dataclass(frozen=True)
class IndexVector:
    """The index vector mu: order r and reals alpha_0..alpha_{r-1}.

    The derived operator coefficients are a_k = r*alpha_k + k.  No alpha_k
    may be a negative integer, so the Pochhammer denominators of j_mu never
    vanish.
    """

    r: int
    alphas: tuple
    a: tuple = field(init=False)

    def __post_init__(self):
        r = int(self.r)
        if r < 2:
            raise ParameterError("index vector needs r >= 2")
        alphas = tuple(float(x) for x in self.alphas)
        if len(alphas) != r:
            raise ParameterError(f"expected {r} alphas, got {len(alphas)}")
        for k, al in enumerate(alphas):
            if not math.isfinite(al):
                raise ParameterError(f"alpha_{k} must be finite, got {al}")
            if al < -0.5 and _is_nonpositive_integer(al):
                raise PoleError(f"alpha = {al} is a negative integer")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "a", tuple(r * al + k for k, al in enumerate(alphas)))

    @property
    def cyclic(self) -> CyclicStructure:
        return CyclicStructure(self.r)


def pochhammer(beta: float, n: int) -> float:
    """Rising factorial (beta)_n = beta (beta+1) ... (beta+n-1).

    Computed by direct product for n <= 64 and through log-gamma beyond.
    Raises PoleError when a factor vanishes.
    """
    if n < 0:
        raise ParameterError("pochhammer order must be >= 0")
    if n == 0:
        return 1.0
    for j in range(n):
        if abs(beta + j) < _NEG_INT_TOL:
            raise PoleError(f"({beta})_{n} hits a zero factor at j = {j}")
    if n <= 64:
        out = 1.0
        for j in range(n):
            out *= beta + j
        return out
    if beta <= 0 and beta == round(beta):
        # Gamma(beta) is a pole: reflect, (beta)_n = (-1)^n (1 - beta - n)_n
        return (-1.0) ** n * pochhammer(1.0 - beta - n, n)
    sign = _gamma_sign(beta + n) * _gamma_sign(beta)
    return sign * np.exp(math.lgamma(beta + n) - math.lgamma(beta))


def bessel_j_series(mu: IndexVector, N: int) -> LaurentSeries:
    """Series of j_mu through degree N (grade tag 0).

    The m = N // r + 1 nonzero coefficients in one pass: fac[k, n] =
    alpha_k + 1 + n, its product over k (left to right), and the terms by
    sequential division, term_(n+1) = term_n / -(prod_k fac[k, n] r^r)."""
    r = mu.r
    m = N // r + 1
    fac = np.add.outer(np.add(mu.alphas, 1.0), np.arange(m))
    poles = np.abs(fac) < _NEG_INT_TOL
    if poles.any():
        n, k = divmod(int(np.argmax(poles.T)), r)  # the first hit in n-major order
        raise PoleError(f"(alpha+1)_n factor vanishes at alpha={mu.alphas[k]}, n={n}")
    denom = np.multiply.reduce(fac[:, : m - 1], axis=0)
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[::r] = np.divide.accumulate(np.concatenate(([1.0], -(denom * float(r) ** r))))
    return LaurentSeries(0, coeffs, N, 0, r)


def bessel_j_value(mu: IndexVector, x) -> complex | np.ndarray:
    """Point values of j_mu by the guarded Horner evaluation of its series
    (``series.guarded_evaluate``), the same rule as the kernel values."""
    return guarded_evaluate(lambda N: bessel_j_series(mu, N), mu.r, x)


def cos_r_series(c: CyclicStructure, N: int) -> LaurentSeries:
    """Series of cos_r, the grade-0 part of exp(theta*x); equals
    sum_n (-1)^n x^(n r)/(n r)!."""
    return project_T(exp_series(c.theta, N), 0, c)


def cos_r_value(c: CyclicStructure, z) -> float | complex | np.ndarray:
    """cos_r by the exact r-point average (1/r) sum_k exp(theta omega^k z).

    For real z the rotations theta omega^k and theta omega^(r-1-k) are
    complex conjugates, so the average is summed in real arithmetic as
    (1/r) [sum_k 2 exp(a_k z) cos(b_k z) + (r odd) exp(-z)] over
    k < r/2, with a_k + i b_k = theta omega^k; the result is then real.
    """
    if np.isrealobj(z):
        z = np.asarray(z, dtype=float)
        val = np.exp(-z) if c.r % 2 else np.zeros_like(z)
        for k in range(c.r // 2):
            angle = np.pi * (2 * k + 1) / c.r
            val = val + 2.0 * np.exp(np.cos(angle) * z) * np.cos(np.sin(angle) * z)
        val = val / c.r
        if val.ndim == 0:
            return float(val)
        return val
    z = np.asarray(z, dtype=complex)
    val = np.zeros_like(z)
    for k in range(c.r):
        val = val + np.exp(c.theta * c.omega_pow(k) * z)
    val = val / c.r
    if val.ndim == 0:
        return complex(val)
    return val


def index_shift(mu: IndexVector, direction: str) -> IndexVector:
    """Index shifts used by the ladder relations: "minus" decrements alpha_0
    only, "plus" increments alpha_1..alpha_{r-1} only."""
    if direction == "minus":
        shifted = (mu.alphas[0] - 1.0,) + mu.alphas[1:]
    elif direction == "plus":
        shifted = (mu.alphas[0],) + tuple(al + 1.0 for al in mu.alphas[1:])
    else:
        raise ParameterError("direction must be 'minus' or 'plus'")
    return IndexVector(mu.r, shifted)


def gamma_ratio(numerator, denominator) -> float:
    """prod Gamma(numerator) / prod Gamma(denominator) via log-gamma, with
    sign tracking so negative non-integer arguments are handled."""
    log = 0.0
    sign = 1.0
    for v in numerator:
        if _is_nonpositive_integer(v):
            raise PoleError(f"Gamma({v}) pole in a ratio numerator")
        log += math.lgamma(v)
        sign *= _gamma_sign(v)
    for v in denominator:
        if _is_nonpositive_integer(v):
            return 0.0  # Gamma pole downstairs kills the ratio
        log -= math.lgamma(v)
        sign *= _gamma_sign(v)
    return sign * float(np.exp(log))
