"""The weighted hermitian product over rotated rays and its adjoint calculus.

The product is

    <f, g>_a = integral_0^inf sum_m f(omega^m t) conj(g(omega^m t)) t^a dt,

realized concretely on the family omega^(m tau) p(x) exp(-s x^r), p a
Laurent polynomial and tau an integer twist: exp(-s t^r) decays on every
ray, the untwisted members are closed under d/dx, the grade projectors,
powers of x and the Dunkl operator, and the adjoint forms stay on the
family with twist 2 (x/conj(x) = omega^(2m) on ray m).  The ray sum keeps
the terms x^i of f and x^j of g with i + tau_f = j + tau_g (mod r), each a
Gamma moment Gamma(p) (s_f + s_g)^(-p), p = (i + j + a + 1)/r; ``pairing``
sums them exactly, so the gated ``hilbert.*`` reports are coefficient
identities.  Quadrature (``inner_product_plain``) stays for operands that
leave the family, the adjoints R* and V*; it and the transforms' kernel
pairing are the one ray integral ``_ray_integral``.

Every ray function answers for all r rays in one call: ``on_ray(m, t)``
takes one ray index or a 1-d array of them and then returns one row per
ray, equal to the one-ray value bit for bit.  A family member evaluates its
polynomial once on the (rays x t) grid, and the compositions (``ray_power``,
``ray_projection``, ``ray_lincomb``) and the quadrature product read each
input once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._errors import ParameterError
from .operators import apply_D
from .quadrature import gauss_jacobi_rule, gauss_legendre_rule
from .reports import VerificationReport, make_report
from .series import (
    CyclicStructure,
    LaurentSeries,
    add,
    differentiate,
    evaluate,
    mul_x_power,
    project_T,
    shifted,
)
from .special import IndexVector


class RayMap:
    """A function known through its values on the rays omega^m t, t > 0.

    ``on_ray(m, t)`` takes one ray index, giving values shaped like t, or a
    1-d array of ray indices, giving one row of values per index.  ``fn(m, t)``
    answers for one ray; an array of indices is answered ray by ray.
    """

    def __init__(self, fn):
        self._fn = fn

    def on_ray(self, m, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.ndim(m) == 0:
            return self._fn(m, t)
        return np.stack([self._fn(int(k), t) for k in m])


class _AllRayMap(RayMap):
    """A RayMap whose ``fn`` takes an array of ray indices as well as one."""

    def on_ray(self, m, t: np.ndarray) -> np.ndarray:
        return self._fn(m, np.asarray(t, dtype=float))


def _per_ray(m, t: np.ndarray, value):
    """value(k) for each ray index k of m, shaped to broadcast against t: a
    number for one index, a column for an array of them.  Each entry is the
    scalar a one-ray evaluation computes, so the rows agree bit for bit."""
    if np.ndim(m) == 0:
        return value(m)
    col = np.array([value(int(k)) for k in m])
    return col.reshape(col.shape + (1,) * np.ndim(t))


def ray_power(g, p: int, c: CyclicStructure, conjugate: bool = False):
    """x^p g, or conj(x)^p g with conjugate=True, read on each ray; g itself
    when p = 0."""
    if p == 0:
        return g

    def omega(k):
        return np.conj(c.omega_pow(k)) if conjugate else c.omega_pow(k)

    def fn(m, t):
        return (_per_ray(m, t, omega) * t) ** p * g.on_ray(m, t)

    return _AllRayMap(fn)


def ray_projection(g, k: int, c: CyclicStructure) -> RayMap:
    """T_k g as the r-point average of g over the rotated rays; every row is
    formed from one evaluation of g on all r rays."""

    def fn(m, t):
        rows = g.on_ray(np.arange(c.r), t)
        acc = np.zeros(np.shape(m) + np.shape(t), dtype=complex)
        for n in range(c.r):
            acc = acc + c.omega_pow(n * k) * rows[(np.asarray(m) + n) % c.r]
        return acc / c.r

    return _AllRayMap(fn)


def ray_lincomb(terms, scale: float = 1.0) -> RayMap:
    """scale * sum_i w_i g_i over the pairs (w_i, g_i) in terms."""

    def fn(m, t):
        acc = np.zeros(np.shape(m) + np.shape(t), dtype=complex)
        for w, term in terms:
            acc = acc + w * term.on_ray(m, t)
        return scale * acc

    return _AllRayMap(fn)


@dataclass(frozen=True)
class RayTestFunction:
    """Laurent polynomial ``poly`` times exp(-decay_scale * x^r) and omega^(m twist) on ray m.

    A polynomial is exact at every stored degree, so the watermark of
    ``poly`` is reset to its top degree whatever operations produced it.
    """

    c: CyclicStructure
    poly: LaurentSeries
    decay_scale: float = 1.0
    twist: int = 0

    def __post_init__(self):
        if self.decay_scale <= 0:
            raise ParameterError("decay_scale must be positive")
        p = self.poly
        object.__setattr__(self, "poly", LaurentSeries(p.n_min, p.coeffs, p.n_max))

    def on_ray(self, m, t: np.ndarray) -> np.ndarray:
        """Values on one ray, or one row per ray of an array of indices, from
        one evaluation of the polynomial and of the decay factor."""
        t = np.asarray(t, dtype=float)
        z = _per_ray(m, t, self.c.omega_pow) * t
        vals = evaluate(self.poly, z) * np.exp(-self.decay_scale * t ** self.c.r)
        if self.twist:
            vals = _per_ray(m, t, lambda k: self.c.omega_pow(k * self.twist)) * vals
        return vals


def ray_poly(c: CyclicStructure, coeffs, d_min: int = 0, decay_scale: float = 1.0) -> RayTestFunction:
    return RayTestFunction(c, LaurentSeries(d_min, coeffs), decay_scale)


def _image(f: RayTestFunction, poly: LaurentSeries) -> RayTestFunction:
    """poly exp(-s x^r) from a family operator acting on p alone: f must be untwisted."""
    if f.twist:
        raise ParameterError(f"family operators take untwisted members, got twist {f.twist}")
    return RayTestFunction(f.c, poly, f.decay_scale)


def _with_decay_term(f: RayTestFunction, dp: LaurentSeries) -> RayTestFunction:
    """The image of f = p exp(-s x^r) under a first-order operator of the
    family (d/dx, the Dunkl operator) whose image of p is dp.  The
    exponential has grade 0, so the operator adds only the term
    -s r x^(r-1) p from differentiating it."""
    r, s = f.c.r, f.decay_scale
    decay = shifted(f.poly, -(s * r) * f.poly.coeffs, r - 1)
    return _image(f, add(dp, decay))


def ray_ddx(f: RayTestFunction) -> RayTestFunction:
    """d/dx on the family: p -> p' - s r x^(r-1) p."""
    return _with_decay_term(f, differentiate(f.poly))


def ray_mul_power(f: RayTestFunction, p: int) -> RayTestFunction:
    return _image(f, mul_x_power(f.poly, p))


def ray_project(f: RayTestFunction, k: int) -> RayTestFunction:
    return _image(f, project_T(f.poly, k, f.c))


def ray_dunkl(mu: IndexVector, f: RayTestFunction) -> RayTestFunction:
    """D_mu on the family: (D_mu p) exp(-s x^r) - s r x^(r-1) p exp(-s x^r),
    exact on coefficients."""
    return _with_decay_term(f, apply_D(mu, f.poly))


def _ray_integral(g, kernel_at, a: float, Tmax: float, n_nodes: int,
                  c: CyclicStructure) -> complex:
    """integral_0^Tmax sum_m g(omega^m t) kernel_at(m, t) t^a dt, with g and
    the kernel each evaluated once on all r rays (m an array of indices):
    Gauss-Legendre for a = 0, Gauss-Jacobi with t^a in the weight otherwise."""
    if a < 0:
        raise ParameterError("the weight exponent must satisfy a >= 0")
    if a == 0:
        rule = gauss_legendre_rule(n_nodes, 0.0, Tmax)
        t, w = rule.nodes, rule.weights
    else:
        rule = gauss_jacobi_rule(0.0, a, n_nodes)
        t, w = Tmax * rule.nodes, Tmax ** (a + 1.0) * rule.weights
    rays = np.arange(c.r)
    acc = np.zeros_like(t, dtype=complex)
    for row in np.asarray(g.on_ray(rays, t), dtype=complex) * kernel_at(rays, t):
        acc += row
    return complex(np.sum(w * acc))


def inner_product_plain(f, g, a: float, Tmax: float, n_nodes: int,
                        c: CyclicStructure) -> complex:
    """<f, g>_a truncated at Tmax, conjugate-linear in g, by plain
    Gauss-Legendre with the t^a weight kept in the integrand.  That suits
    operands that leave the family: g may behave like t^(-a) near the
    origin (adjoints of the fractional means do), where the product
    t^a f conj(g) is the smooth quantity."""
    return _ray_integral(f, lambda m, t: t ** a * np.conj(g.on_ray(m, t)), 0.0, Tmax,
                         n_nodes, c)


def _gamma_moments(i, u, j, v, phase, a: float, r: int, s: float, log_weight=0.0):
    """log_weight + log Gamma(p) - p log s, p = (i + j + a + 1)/r, on the
    pairs of terms u_i x^i (rows) and v_j x^j (columns) that survive the ray
    sum, -inf on the rest.  A pair survives when u_i v_j != 0 and its ray
    phase is 0 (mod r); the r rays then give Gamma(p) s^(-p), which diverges,
    and is refused, where p <= 0."""
    if not math.isfinite(a):
        raise ParameterError(f"the weight exponent a must be finite, got {a}")
    p = (i[:, None] + j + a + 1.0) / r
    kept = (phase % r == 0) & (u[:, None] != 0) & (v != 0)
    if np.any(kept & (p <= 0)):
        raise ParameterError("the ray integral diverges at the origin for this input")
    log_gamma = np.zeros(p.shape)
    try:
        log_gamma[kept] = [math.lgamma(x) for x in p[kept].tolist()]
    except OverflowError:  # an overflowing log-Gamma overflows every moment
        log_gamma[:] = np.inf
    return np.where(kept, log_weight + log_gamma - p * np.log(s), -np.inf)


def pairing(f: RayTestFunction, g: RayTestFunction, a: float) -> complex:
    """<f, g>_a on the family, conjugate-linear in g: the sum of
    c_i conj(d_j) Gamma(p) (s_f + s_g)^(-p), p = (i + j + a + 1)/r, over the
    terms c_i x^i of f and d_j x^j of g with i + tau_f = j + tau_g (mod r)."""
    c, d = f.poly.coeffs, np.conj(g.poly.coeffs)
    i, j = f.poly.degrees, g.poly.degrees
    log_moments = _gamma_moments(i, c, j, d, (i + f.twist)[:, None] - (j + g.twist), a,
                                 f.c.r, f.decay_scale + g.decay_scale)
    return complex(c @ np.exp(log_moments) @ d)


def apply_D_star(mu: IndexVector, a: float, f) -> RayTestFunction:
    """Adjoint of the Dunkl operator for <.,.>_a:

        D* g = -( (x/conj(x)) g' + (1/conj(x)) sum_k (a - a_k) T_{k+1} g ),

    with x/conj(x) = omega^(2m) and 1/conj(x) = omega^(2m)/x on ray m: the
    family member -[g' + x^(-1) sum_k (a - a_k) T_{k+1} g] with twist 2,
    where T_{k+1} keeps the degrees n = -(k+1) (mod r).  The twist is what
    per-ray integration by parts actually produces; it is invisible for
    r = 2, where the rays are real.  (``integration_by_parts_check``
    measures the untwisted rule, which fails for r >= 3.)
    """
    degs = f.poly.degrees
    weights = degs + a - np.asarray(mu.a)[(-degs - 1) % mu.r]
    bracket = _with_decay_term(f, shifted(f.poly, f.poly.coeffs * weights, -1)).poly
    return RayTestFunction(f.c, shifted(bracket, -bracket.coeffs), f.decay_scale, twist=2)


def projector_symmetry_check(i: int, a: float, c: CyclicStructure, rng) -> VerificationReport:
    """|<f, T_i g> - <T_i f, g>| over random family pairs, plus the
    cross-grade orthogonality |<T_i f, T_j g>| for j != i."""
    worst = 0.0
    for _ in range(4):
        f = _random_test_function(c, rng)
        g = _random_test_function(c, rng)
        lhs = pairing(f, ray_project(g, i), a)
        rhs = pairing(ray_project(f, i), g, a)
        worst = max(worst, abs(lhs - rhs))
        j = (i + 1) % c.r
        worst = max(worst, abs(pairing(ray_project(f, i), ray_project(g, j), a)))
    return make_report(
        check_id=f"hilbert.projector_symmetry.T{i}",
        params={"r": c.r, "a": a, "i": i},
        residual=worst,
        tolerance=1e-9,
    )


def integration_by_parts_check(f: RayTestFunction, g: RayTestFunction, a: float,
                               ray_twist: bool = True) -> VerificationReport:
    """<f', g>_a + <f, (x/conj(x)) g' + (a/conj(x)) g>_a should vanish.

    Per-ray integration by parts produces the x/conj(x) factor on the g'
    term (the boundary terms vanish for the decaying family and a > 0).
    With ray_twist=False the untwisted textbook form is measured instead;
    it only balances on real rays, i.e. for r = 2.
    """
    lhs = pairing(ray_ddx(f), g, a)
    # on ray m, x/conj(x) = omega^(2m) and a/conj(x) = a omega^(2m)/x: twist 2
    rhs = (pairing(f, replace(ray_ddx(g), twist=2 if ray_twist else 0), a)
           + a * pairing(f, replace(ray_mul_power(g, -1), twist=2), a))
    scale = max(abs(lhs), abs(rhs), 1.0)
    return make_report(
        check_id="hilbert.integration_by_parts",
        params={"r": f.c.r, "a": a, "ray_twist": ray_twist},
        residual=abs(lhs + rhs) / scale,
        tolerance=1e-8,
        kind="residual-below" if ray_twist else "measured",
    )


def dunkl_adjoint_residual(mu: IndexVector, a: float,
                           f: RayTestFunction, g: RayTestFunction) -> float:
    """|<D f, g>_a - <f, D* g>_a| normalized by the magnitudes involved."""
    lhs = pairing(ray_dunkl(mu, f), g, a)
    rhs = pairing(f, apply_D_star(mu, a, g), a)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def dunkl_antisymmetry_residual(mu: IndexVector, a: float,
                                f: RayTestFunction, g: RayTestFunction) -> float:
    """|<D f, g>_a + <f, D g>_a|; vanishes exactly when D* = -D."""
    lhs = pairing(ray_dunkl(mu, f), g, a)
    rhs = pairing(f, ray_dunkl(mu, g), a)
    return abs(lhs + rhs) / max(abs(lhs), abs(rhs), 1.0)


def multiplication_adjoint_residuals(f: RayTestFunction, g: RayTestFunction,
                                     a: float) -> tuple[float, float]:
    """Residuals of <f, (1/x) g> = <(1/conj(x)) f, g> and <f, x g> = <conj(x) f, g>.

    On the ray omega^m t, conj(x)^p = omega^(-2mp) x^p: the member x^p f with
    twist -2p."""
    return tuple(abs(pairing(f, ray_mul_power(g, p), a)
                     - pairing(replace(ray_mul_power(f, p), twist=-2 * p), g, a))
                 for p in (-1, 1))


def _random_test_function(c: CyclicStructure, rng) -> RayTestFunction:
    """p(x) exp(-x^r) with p of random degree 2..6 and standard complex
    normal coefficients."""
    deg = int(rng.integers(2, 7))
    coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return ray_poly(c, coeffs)
