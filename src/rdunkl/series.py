"""Truncated Laurent series and the cyclic group actions on them.

Functions are represented as truncated Laurent series with a finite
principal part.  Every operator in the package (derivative, 1/x, grade
projectors, lowering operators, fractional means) acts on monomials as an
exact degree shift or diagonal, so analytic identities become finite
coefficient identities.

Each series carries a ``valid_order`` watermark: degree-lowering operations
shrink the range of trustworthy coefficients, and comparisons clamp to the
common watermark.  This keeps truncation edge effects out of residuals.

``shifted`` is the one place a weighted shift or diagonal builds its image:
it moves the degrees, the watermark and the grade tag together, so every
operator states only its coefficients and its degree shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._errors import DomainError, ParameterError, SeriesOverflowError

#: relative threshold under which a coefficient counts as zero for grade checks
GRADE_ZERO_TOL = 1e-13


@dataclass(frozen=True)
class CyclicStructure:
    """Order ``r`` of the cyclic group together with the two unit roots that
    drive everything: ``omega = exp(2i pi/r)`` and ``theta = exp(i pi/r)``
    (so ``omega = theta**2`` and ``theta**r = -1``)."""

    r: int
    omega: complex = field(init=False)
    theta: complex = field(init=False)

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 2:
            raise ParameterError(f"cyclic order must be an integer >= 2, got {self.r}")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "theta", complex(np.exp(1j * np.pi / self.r)))
        object.__setattr__(self, "omega", complex(np.exp(2j * np.pi / self.r)))

    def omega_pow(self, k: int) -> complex:
        return _omega_powers(self.r)[k % self.r]


@lru_cache(maxsize=None)
def _omega_powers(r: int) -> tuple:
    """omega^0..omega^(r-1), each computed once as exp(2 i pi m / r)."""
    return tuple(complex(np.exp(2j * np.pi * m / r)) for m in range(r))


@dataclass(frozen=True)
class LaurentSeries:
    """Coefficients for degrees ``n_min .. n_min + len(coeffs) - 1``.

    ``valid_order`` marks the highest degree whose coefficient is still
    trustworthy after degree-lowering operations.  ``grade`` is advisory
    metadata: when set, construction checks that the support sits on degrees
    ``n = -grade (mod r)``.
    """

    n_min: int
    coeffs: np.ndarray
    valid_order: int = None  # type: ignore[assignment]
    grade: int | None = None
    r: int | None = None  # needed only to validate a grade tag

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).copy()
        if c.ndim != 1 or c.size == 0:
            raise ParameterError("coeffs must be a nonempty 1-d array")
        object.__setattr__(self, "coeffs", c)
        if self.valid_order is None:
            object.__setattr__(self, "valid_order", self.n_max)
        if self.valid_order > self.n_max:
            raise ParameterError("valid_order cannot exceed the stored degree range")
        if self.grade is not None:
            if self.r is None:
                raise ParameterError("a grade tag needs the cyclic order r")
            self._check_grade()

    def _check_grade(self):
        mags = np.abs(self.coeffs)
        scale = mags.max()
        if scale == 0.0:
            return
        # the on-grade degrees n = -grade (mod r) sit at one stride of r
        mags[(-(self.n_min + self.grade)) % self.r :: self.r] = 0.0
        limit = GRADE_ZERO_TOL * scale
        if mags.max() > limit:
            bad = self.degrees[mags > limit]
            raise ParameterError(
                f"grade {self.grade} tag inconsistent with support at degrees {bad[:4].tolist()}"
            )

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.coeffs) - 1

    @property
    def degrees(self) -> np.ndarray:
        """The stored degrees n_min..n_max as an integer array."""
        return np.arange(self.n_min, self.n_max + 1)

    def __getitem__(self, n: int) -> complex:
        """Coefficient at degree ``n`` (zero outside the stored range)."""
        if self.n_min <= n <= self.n_max:
            return complex(self.coeffs[n - self.n_min])
        return 0.0

    def has_principal_part(self, tol: float = 0.0) -> bool:
        if self.n_min >= 0:
            return False
        head = self.coeffs[: -self.n_min]
        scale = max(np.max(np.abs(self.coeffs)), 1.0)
        return bool(np.any(np.abs(head) > tol * scale))


def shifted(f: LaurentSeries, coeffs, by: int = 0) -> LaurentSeries:
    """``coeffs`` on the degrees of ``f`` moved by ``by``: the image of f
    under an operator that sends x^n to a multiple of x^(n + by).  The
    watermark moves by ``by`` and a grade tag by -by (mod r)."""
    grade = None if f.grade is None else (f.grade - by) % f.r
    return LaurentSeries(f.n_min + by, coeffs, f.valid_order + by, grade, f.r)


def monomial(n: int, n_max: int | None = None) -> LaurentSeries:
    top = n if n_max is None else max(n, n_max)
    c = np.zeros(top - n + 1, dtype=complex)
    c[0] = 1.0
    return LaurentSeries(n, c)


def zero_series(n_min: int = 0, n_max: int = 0) -> LaurentSeries:
    return LaurentSeries(n_min, np.zeros(n_max - n_min + 1, dtype=complex))


def exp_series(rate: complex, N: int) -> LaurentSeries:
    """Series of exp(rate*x) through degree N."""
    coeffs = np.empty(N + 1, dtype=complex)
    coeffs[0] = 1.0
    for k in range(1, N + 1):
        coeffs[k] = coeffs[k - 1] * rate / k
    return LaurentSeries(0, coeffs, N)


def s_action(f: LaurentSeries, k: int, c: CyclicStructure) -> LaurentSeries:
    """The twisted rotation g(x) -> omega^k g(omega x): coefficient at degree
    n picks up omega^(k+n)."""
    phases = np.exp(2j * np.pi * ((k + f.degrees) % c.r) / c.r)
    return shifted(f, f.coeffs * phases)


def project_T(f: LaurentSeries, k: int, c: CyclicStructure) -> LaurentSeries:
    """Grade-k projector: keeps degrees n with n = -k (mod r), zeroes the rest.

    Idempotent; distinct projectors annihilate each other; the sum over
    k = 0..r-1 is the identity.
    """
    mask = (f.degrees + k) % c.r == 0
    return LaurentSeries(f.n_min, np.where(mask, f.coeffs, 0.0), f.valid_order, k % c.r, c.r)


def differentiate(f: LaurentSeries) -> LaurentSeries:
    return shifted(f, f.coeffs * f.degrees, -1)


def mul_x_power(f: LaurentSeries, m: int) -> LaurentSeries:
    return shifted(f, f.coeffs, m)


def scale_argument(f: LaurentSeries, lam: complex) -> LaurentSeries:
    """Series of x -> f(lam*x); exact on coefficients."""
    if lam == 0:
        if f.has_principal_part(GRADE_ZERO_TOL):
            raise DomainError("cannot substitute x -> 0 into a principal part")
        # f(0 x) is the constant c_0 exactly: zeros through valid_order
        valid = max(f.valid_order, 0)
        coeffs = np.zeros(valid + 1, dtype=complex)
        coeffs[0] = f[0]
        return LaurentSeries(0, coeffs, valid)
    return shifted(f, f.coeffs * lam ** f.degrees)


def add(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    n_min = min(f.n_min, g.n_min)
    n_max = max(f.n_max, g.n_max)
    c = np.zeros(n_max - n_min + 1, dtype=complex)
    c[f.n_min - n_min : f.n_max - n_min + 1] += f.coeffs
    c[g.n_min - n_min : g.n_max - n_min + 1] += g.coeffs
    grade = f.grade if f.grade == g.grade else None
    return LaurentSeries(n_min, c, min(f.valid_order, g.valid_order), grade, f.r or g.r)


def lincomb(pairs) -> LaurentSeries:
    acc = None
    for w, f in pairs:
        term = shifted(f, w * f.coeffs)
        acc = term if acc is None else add(acc, term)
    return zero_series() if acc is None else acc


def evaluate(f: LaurentSeries, x) -> complex | np.ndarray:
    """Horner evaluation over degrees n_min..valid_order.

    ``x`` may be a scalar or an array; every element goes through the same
    Horner sequence of operations as a scalar would, so evaluating a grid at
    once gives the per-point values bit for bit.  Raises DomainError when a
    nonzero principal part is present and some x is 0.
    """
    x = np.asarray(x, dtype=complex)
    degs = np.arange(f.n_min, f.valid_order + 1)
    if not degs.size:
        raise DomainError("no trustworthy coefficients left to evaluate")
    coeffs = f.coeffs[: degs.size]
    if f.n_min < 0 and np.any(np.abs(coeffs[degs < 0]) > 0) and np.any(x == 0):
        raise DomainError("evaluation at 0 with nonzero principal part")
    reg = coeffs[degs >= 0]  # degrees max(n_min, 0) .. valid_order
    val = np.zeros_like(x)
    for cn in reg[::-1]:
        val = val * x + cn
    if f.n_min > 0:
        val = val * x ** f.n_min
    pp = coeffs[degs < 0]  # degrees n_min .. -1
    if pp.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(x == 0, 0.0, 1.0 / x)
        acc = np.zeros_like(x)
        for cn in pp:  # Horner in 1/x, most negative degree innermost
            acc = (acc + cn) * inv
        val = val + acc
    if val.ndim == 0:
        return complex(val)
    return val


def kernel_series_degree(r: int, zmax: float) -> int:
    """Truncation degree of the kernel series for arguments |z| <= zmax."""
    return r * (int(math.ceil(1.6 * zmax)) + 28)


def kernel_log_peak(ser: LaurentSeries, zmax: float) -> float:
    """log max_n |c_n| zmax^max(n, 0) over the trustworthy degrees of a
    kernel series, or -inf when they all vanish.  Computed in logs, so the
    peak term cannot itself overflow; the kernel-cancellation guards compare
    it against their own thresholds."""
    degs = np.arange(ser.n_min, ser.valid_order + 1)
    mags = np.abs(ser.coeffs[: len(degs)])
    nz = mags > 0
    if not np.any(nz):
        return -np.inf
    return float(np.max(np.log(mags[nz]) + np.clip(degs[nz], 0, None) * np.log(zmax)))


def guarded_evaluate(build, r: int, z):
    """Values at complex ``z`` of the series ``build(N)`` of j_mu or E_mu
    (order r), N = ``kernel_series_degree(r, max |z|)`` up to 4000 terms of
    j_mu.  Raises SeriesOverflowError past that limit, for a value that is
    not finite, and, at max |z| > 1, when the largest term exceeds the
    smallest value by more than 1e12 (more than 12 digits cancel)."""
    z = np.asarray(z, dtype=complex)
    zmax = float(np.max(np.abs(z))) if z.size else 0.0
    if not 1.6 * zmax <= 4000.0:  # also refuses inf and NaN
        raise SeriesOverflowError(f"|z| = {zmax:.3g} needs more than 4000 series terms")
    ser = build(kernel_series_degree(r, zmax))
    vals = evaluate(ser, z)
    if not np.all(np.isfinite(vals)):
        raise SeriesOverflowError(f"series value at |z| <= {zmax:.3g} is not finite")
    if zmax > 1.0:
        scale = max(float(np.min(np.abs(np.atleast_1d(vals)))), 1e-300)
        if kernel_log_peak(ser, zmax) - np.log(scale) > np.log(1e12):
            raise SeriesOverflowError(
                f"series evaluation at |z| <= {zmax:.3g} loses more than 12 digits "
                f"to cancellation")
    return vals


def series_residual(f: LaurentSeries, g: LaurentSeries, from_degree: int | None = None) -> float:
    """Max coefficient difference over the common trustworthy range, relative
    to the larger coefficient scale.  ``from_degree`` floors the compared
    range (used by identities that are only asserted on the regular part)."""
    top = min(f.valid_order, g.valid_order)
    lo = min(f.n_min, g.n_min)
    if from_degree is not None:
        lo = max(lo, from_degree)
    if top < lo:
        raise ParameterError("series share no trustworthy degrees")
    a, b = _window(f, lo, top), _window(g, lo, top)
    d = a - b
    # magnitudes by hypot, as Python's abs(complex); np.abs can differ by an ulp
    scale = max(np.hypot(a.real, a.imag).max(), np.hypot(b.real, b.imag).max(), 1e-300)
    return float(np.hypot(d.real, d.imag).max() / scale)


def _window(f: LaurentSeries, lo: int, hi: int) -> np.ndarray:
    """Coefficients of degrees lo..hi, zero outside the stored range."""
    out = np.zeros(hi - lo + 1, dtype=complex)
    start, stop = max(lo, f.n_min), min(hi, f.n_max)
    if start <= stop:
        out[start - lo:stop - lo + 1] = f.coeffs[start - f.n_min:stop - f.n_min + 1]
    return out


def series_to_json(f: LaurentSeries) -> dict:
    return {
        "n_min": int(f.n_min),
        "coeffs": [[float(z.real), float(z.imag)] for z in f.coeffs],
    }


def series_from_json(obj: dict) -> LaurentSeries:
    coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]], dtype=complex)
    return LaurentSeries(int(obj["n_min"]), coeffs)
