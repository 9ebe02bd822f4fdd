"""Correspondence with the one-variable Dunkl-Opdam operator family.

T(kappa) = d/dx + (1/x) sum_s b_s tau^s with b_s = sum_{t>=1} kappa_t omega^(-st)
and tau f(x) = f(omega x).  On x^n the sum over s collapses to r kappa_{n mod r},
so T(kappa) is D's weighted shift x^n -> (n + a_{(-n) mod r}) x^(n-1) at the
index reversal a_t = r kappa_{(-t) mod r} (kappa_0 = 0).  Conversely a admits
kappa_t = a_{(-t) mod r} / r exactly when a_0 vanishes; the obstruction scalar
|a_0| / r is the residual of the returned NoSolution.  ``reflection_sum``
keeps the defining sum as the independent oracle for the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._errors import ParameterError
from .operators import _dunkl_shift
from .series import CyclicStructure, LaurentSeries, differentiate, lincomb, mul_x_power, s_action


def _finite_complex(values, what: str) -> tuple:
    out = tuple(complex(v) for v in values)
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in out):
        raise ParameterError(f"{what} must be finite, got {list(out)}")
    return out


@dataclass(frozen=True)
class KappaVector:
    r: int
    kappas: tuple  # kappa_1..kappa_{r-1}, complex allowed

    def __post_init__(self):
        if len(self.kappas) != self.r - 1:
            raise ParameterError(f"expected {self.r - 1} kappa components")
        object.__setattr__(self, "kappas", _finite_complex(self.kappas, "kappa components"))


@dataclass(frozen=True)
class NoSolution:
    residual: float


def reflection_sum(kappa: KappaVector, f: LaurentSeries, c: CyclicStructure) -> LaurentSeries:
    """T(kappa) f by its definition f' + (1/x) sum_s b_s f(omega^s x): the
    oracle for ``apply_T_kappa``, sharing none of its arithmetic."""
    terms = [(1.0, differentiate(f))]
    rotated = f  # f(omega^s x)
    for s in range(c.r):
        b_s = sum(k * c.omega_pow(-s * t) for t, k in enumerate(kappa.kappas, start=1))
        terms.append((b_s, mul_x_power(rotated, -1)))
        rotated = s_action(rotated, 0, c)
    return lincomb(terms)


def apply_T_kappa(kappa: KappaVector, f: LaurentSeries, c: CyclicStructure) -> LaurentSeries:
    """Exact series action: D's weighted shift at a = kappa_to_a(kappa)."""
    return _dunkl_shift(kappa_to_a(kappa, c), f)


def kappa_to_a(kappa: KappaVector, c: CyclicStructure) -> list[complex]:
    """a_t = r kappa_{(-t) mod r}, with kappa_0 = 0."""
    k = (0j,) + kappa.kappas
    return [c.r * k[-t % c.r] for t in range(c.r)]


def a_to_kappa(a_list, c: CyclicStructure):
    """kappa_t = a_{(-t) mod r} / r when |a_0| / r <= 1e-12, otherwise
    NoSolution carrying that obstruction scalar."""
    r = c.r
    a = _finite_complex(a_list, "coefficients")
    if len(a) != r:
        raise ParameterError(f"expected {r} coefficients")
    obstruction = math.hypot(a[0].real, a[0].imag) / r  # abs(complex) without OverflowError
    if obstruction > 1e-12:
        return NoSolution(residual=obstruction)
    return KappaVector(r, tuple(a[-t % r] / r for t in range(1, r)))
