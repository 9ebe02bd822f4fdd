"""Correspondence with the one-variable Dunkl-Opdam operator family.

T(kappa) = d/dx + (1/x) sum_s b_s tau^s with b_s = sum_{t>=1} kappa_t omega^(-st)
and tau f(x) = f(omega x).  Writing the cyclic Dunkl operator in the same
tau-basis turns the matching problem into a scaled discrete Fourier system:
kappa determines the coefficient list a uniquely (always with a_0 = 0),
while a admits a kappa exactly when a_0 vanishes; the obstruction scalar is
a_0 / r, surfaced as the residual of the returned NoSolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import ParameterError
from .series import CyclicStructure, LaurentSeries, shifted


@dataclass(frozen=True)
class KappaVector:
    r: int
    kappas: tuple  # kappa_1..kappa_{r-1}, complex allowed

    def __post_init__(self):
        if len(self.kappas) != self.r - 1:
            raise ParameterError(f"expected {self.r - 1} kappa components")
        object.__setattr__(self, "kappas", tuple(complex(k) for k in self.kappas))


@dataclass(frozen=True)
class NoSolution:
    residual: float


def _reflection_coeffs(kappa: KappaVector, c: CyclicStructure) -> np.ndarray:
    """b_s = sum_{t=1}^{r-1} kappa_t omega^(-s t)."""
    r = c.r
    s = np.arange(r)
    b = np.zeros(r, dtype=complex)
    for t, kt in enumerate(kappa.kappas, start=1):
        b += kt * np.exp(-2j * np.pi * s * t / r)
    return b


def apply_T_kappa(kappa: KappaVector, f: LaurentSeries, c: CyclicStructure) -> LaurentSeries:
    """Exact series action: degree n feeds (n + sum_s b_s omega^(s n)) c_n
    into degree n - 1."""
    r = c.r
    b = _reflection_coeffs(kappa, c)
    degs = f.degrees
    phase = np.exp(2j * np.pi * np.outer(np.arange(r), degs) / r)  # omega^(s n)
    weights = degs + b @ phase
    return shifted(f, f.coeffs * weights, -1)


def kappa_to_a(kappa: KappaVector, c: CyclicStructure) -> list[complex]:
    """Unique solution of (1/r) sum_t a_t omega^(st) = b_s for every s,
    inverted through the discrete Fourier structure (a_0 comes out 0)."""
    r = c.r
    b = _reflection_coeffs(kappa, c)
    t = np.arange(r)
    a = np.zeros(r, dtype=complex)
    for s in range(r):
        a += b[s] * np.exp(-2j * np.pi * s * t / r)
    # residual of all r defining equations
    worst = 0.0
    for s in range(r):
        lhs = np.sum(a * np.exp(2j * np.pi * s * t / r)) / r
        worst = max(worst, abs(lhs - b[s]))
    if worst > 1e-13 * max(1.0, np.max(np.abs(a))):
        raise ParameterError(f"Fourier inversion failed with residual {worst}")
    return [complex(v) for v in a]


def a_to_kappa(a_list, c: CyclicStructure):
    """Candidate kappa_t = (1/r) sum_s b_s omega^(st); a solution exists iff
    the t = 0 slot vanishes, and that consistency scalar equals a_0 / r."""
    r = c.r
    a = np.asarray(a_list, dtype=complex)
    if len(a) != r:
        raise ParameterError(f"expected {r} coefficients")
    t = np.arange(r)
    b = np.array([np.sum(a * np.exp(2j * np.pi * s * t / r)) / r for s in range(r)])
    kappa0 = np.sum(b) / r  # equals a_0 / r
    if abs(kappa0) > 1e-12:
        return NoSolution(residual=float(abs(kappa0)))
    kappas = [complex(np.sum(b * np.exp(2j * np.pi * np.arange(r) * tt / r)) / r)
              for tt in range(1, r)]
    return KappaVector(r, tuple(kappas))
