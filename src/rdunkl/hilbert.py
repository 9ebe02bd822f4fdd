"""The weighted hermitian product over rotated rays and its adjoint calculus.

The product is

    <f, g>_a = integral_0^inf sum_m f(omega^m t) conj(g(omega^m t)) t^a dt,

realized concretely on the family p(x) exp(-s x^r) with p a Laurent
polynomial: since (omega^m t)^r = t^r, the factor exp(-s t^r) decays on
every ray, and the family is closed under d/dx, the grade projectors,
multiplication by powers of x, and the Dunkl operator.

Quadrature absorbs t^(a-1) into a Jacobi weight on [0, Tmax] so integrands
with a single 1/t factor (from the 1/conj(x) terms of adjoints) still
integrate at spectral accuracy.

Every ray function answers for all r rays in one call: ``on_ray(m, t)``
takes one ray index or a 1-d array of them and then returns one row per
ray.  A family member evaluates its polynomial once on the (rays x t) grid,
the compositions (``ray_power``, ``ray_projection``, ``ray_lincomb``, the
adjoint map of ``apply_D_star``) produce all rays from one evaluation of
their inputs, and the product sums over rays after reading each function
once.  Each row equals the one-ray value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Laurent polynomial ``poly`` times exp(-decay_scale * x^r).

    A polynomial is exact at every stored degree, so the watermark of
    ``poly`` is reset to its top degree whatever operations produced it.
    """

    c: CyclicStructure
    poly: LaurentSeries
    decay_scale: float = 1.0

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
        return evaluate(self.poly, z) * np.exp(-self.decay_scale * t ** self.c.r)


def ray_poly(c: CyclicStructure, coeffs, d_min: int = 0, decay_scale: float = 1.0) -> RayTestFunction:
    return RayTestFunction(c, LaurentSeries(d_min, coeffs), decay_scale)


def _with_decay_term(f: RayTestFunction, dp: LaurentSeries) -> RayTestFunction:
    """The image of f = p exp(-s x^r) under a first-order operator of the
    family (d/dx, the Dunkl operator) whose image of p is dp.  The
    exponential has grade 0, so the operator adds only the term
    -s r x^(r-1) p from differentiating it."""
    r, s = f.c.r, f.decay_scale
    decay = shifted(f.poly, -(s * r) * f.poly.coeffs, r - 1)
    return RayTestFunction(f.c, add(dp, decay), s)


def ray_ddx(f: RayTestFunction) -> RayTestFunction:
    """d/dx on the family: p -> p' - s r x^(r-1) p."""
    return _with_decay_term(f, differentiate(f.poly))


def ray_mul_power(f: RayTestFunction, p: int) -> RayTestFunction:
    return RayTestFunction(f.c, mul_x_power(f.poly, p), f.decay_scale)


def ray_project(f: RayTestFunction, k: int) -> RayTestFunction:
    return RayTestFunction(f.c, project_T(f.poly, k, f.c), f.decay_scale)


def ray_dunkl(mu: IndexVector, f: RayTestFunction) -> RayTestFunction:
    """D_mu on the family: (D_mu p) exp(-s x^r) - s r x^(r-1) p exp(-s x^r),
    exact on coefficients."""
    return _with_decay_term(f, apply_D(mu, f.poly))


@dataclass(frozen=True)
class WeightedInnerProduct:
    """Quadrature context for <.,.>_a truncated at Tmax.

    Construction verifies that the slowest-decaying family member the caller
    promises (degree <= max_degree, decay >= min_decay_scale) has a
    negligible tail beyond Tmax.
    """

    a: float
    r: int
    Tmax: float = None  # type: ignore[assignment]
    n_nodes: int = 200
    max_degree: int = 24
    min_decay_scale: float = 1.0
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.a <= 0:
            raise ParameterError("the weight exponent a must be positive")
        if self.Tmax is None:
            T = (38.0 / (2.0 * self.min_decay_scale)) ** (1.0 / self.r)
            while (
                T ** (self.max_degree + self.a)
                * np.exp(-2.0 * self.min_decay_scale * T ** self.r)
                > 1e-15
            ):
                T += 0.25
            object.__setattr__(self, "Tmax", float(T))
        tail = (
            self.Tmax ** (self.max_degree + self.a)
            * np.exp(-2.0 * self.min_decay_scale * self.Tmax ** self.r)
        )
        if tail > 1e-14:
            raise ParameterError(
                f"Tmax={self.Tmax} cannot certify the truncation tail ({tail:.2e})"
            )
        rule = gauss_jacobi_rule(0.0, self.a - 1.0, self.n_nodes)
        object.__setattr__(self, "nodes", self.Tmax * rule.nodes)
        object.__setattr__(self, "weights", self.Tmax ** self.a * rule.weights)


def _ray_sum(f, g, t: np.ndarray, c: CyclicStructure) -> np.ndarray:
    """sum_m f(omega^m t) conj(g(omega^m t)) at the nodes t, from one
    all-ray evaluation of each function, summed ray by ray."""
    rays = np.arange(c.r)
    acc = np.zeros_like(t, dtype=complex)
    for row in f.on_ray(rays, t) * np.conj(g.on_ray(rays, t)):
        acc += row
    return acc


def inner_product(f, g, ip: WeightedInnerProduct, c: CyclicStructure) -> complex:
    """<f, g>_a; conjugate-linear in g."""
    # one power of t moves into the Jacobi weight: integrate t^(a-1) * (t s(t))
    t = ip.nodes
    return complex(np.sum(ip.weights * t * _ray_sum(f, g, t, c)))


def inner_product_plain(f, g, a: float, Tmax: float, n_nodes: int,
                        c: CyclicStructure) -> complex:
    """<f, g>_a by plain Gauss-Legendre with the t^a weight kept in the
    integrand.  Used when g behaves like t^(-a) near the origin (adjoints of
    the fractional means do), where the product t^a f conj(g) is the smooth
    quantity."""
    rule = gauss_legendre_rule(n_nodes, 0.0, Tmax)
    t = rule.nodes
    return complex(np.sum(rule.weights * t ** a * _ray_sum(f, g, t, c)))


def apply_D_star(mu: IndexVector, a: float, f) -> RayMap:
    """Adjoint of the Dunkl operator for <.,.>_a:

        D* g = -( (x/conj(x)) g' + (1/conj(x)) sum_k (a - a_k) T_{k+1} g ),

    with 1/conj(x) read on the ray omega^m t as omega^m / t and the twist
    x/conj(x) as omega^(2m).  The twist is what per-ray integration by parts
    actually produces; it is invisible for r = 2, where the rays are real.
    (``integration_by_parts_check`` measures the untwisted rule, which fails
    for r >= 3.)
    """
    c = CyclicStructure(mu.r)
    r = mu.r
    if not isinstance(f, RayTestFunction):
        raise ParameterError("D* needs a ray test function")
    fprime = ray_ddx(f)
    projections = [ray_project(f, (k + 1) % r) for k in range(r)]

    def fn(m, t):
        acc = _per_ray(m, t, lambda k: c.omega_pow(k) ** 2) * fprime.on_ray(m, t).astype(complex)
        w = _per_ray(m, t, c.omega_pow) / t
        for k in range(r):
            coef = a - mu.a[k]
            if coef != 0.0:
                acc = acc + coef * w * projections[k].on_ray(m, t)
        return -acc

    return _AllRayMap(fn)


def projector_symmetry_check(i: int, ip: WeightedInnerProduct, c: CyclicStructure,
                             rng) -> VerificationReport:
    """|<f, T_i g> - <T_i f, g>| over random family pairs, plus the
    cross-grade orthogonality |<T_i f, T_j g>| for j != i."""
    worst = 0.0
    for _ in range(4):
        f = _random_test_function(c, rng)
        g = _random_test_function(c, rng)
        lhs = inner_product(f, ray_project(g, i), ip, c)
        rhs = inner_product(ray_project(f, i), g, ip, c)
        worst = max(worst, abs(lhs - rhs))
        j = (i + 1) % c.r
        worst = max(worst, abs(inner_product(ray_project(f, i), ray_project(g, j), ip, c)))
    return make_report(
        check_id=f"hilbert.projector_symmetry.T{i}",
        params={"r": c.r, "a": ip.a, "i": i},
        residual=worst,
        tolerance=1e-9,
    )


def integration_by_parts_check(f: RayTestFunction, g: RayTestFunction,
                               ip: WeightedInnerProduct, c: CyclicStructure,
                               ray_twist: bool = True) -> VerificationReport:
    """<f', g>_a + <f, (x/conj(x)) g' + (a/conj(x)) g>_a should vanish.

    Per-ray integration by parts produces the x/conj(x) factor on the g'
    term (the boundary terms vanish for the decaying family and a > 0).
    With ray_twist=False the untwisted textbook form is measured instead;
    it only balances on real rays, i.e. for r = 2.
    """
    lhs = inner_product(ray_ddx(f), g, ip, c)

    gprime = ray_ddx(g)

    def rhs_fn(m, t):
        twist = _per_ray(m, t, lambda k: c.omega_pow(k) ** 2) if ray_twist else 1.0
        return (twist * gprime.on_ray(m, t)
                + (_per_ray(m, t, lambda k: ip.a * c.omega_pow(k)) / t) * g.on_ray(m, t))

    rhs = inner_product(f, _AllRayMap(rhs_fn), ip, c)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return make_report(
        check_id="hilbert.integration_by_parts",
        params={"r": c.r, "a": ip.a, "ray_twist": ray_twist},
        residual=abs(lhs + rhs) / scale,
        tolerance=1e-8,
        kind="residual-below" if ray_twist else "measured",
    )


def dunkl_adjoint_residual(mu: IndexVector, ip: WeightedInnerProduct,
                           f: RayTestFunction, g: RayTestFunction) -> float:
    """|<D f, g>_a - <f, D* g>_a| normalized by the magnitudes involved."""
    c = CyclicStructure(mu.r)
    lhs = inner_product(ray_dunkl(mu, f), g, ip, c)
    rhs = inner_product(f, apply_D_star(mu, ip.a, g), ip, c)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def dunkl_antisymmetry_residual(mu: IndexVector, ip: WeightedInnerProduct,
                                f: RayTestFunction, g: RayTestFunction) -> float:
    """|<D f, g>_a + <f, D g>_a|; vanishes exactly when D* = -D."""
    c = CyclicStructure(mu.r)
    lhs = inner_product(ray_dunkl(mu, f), g, ip, c)
    rhs = inner_product(f, ray_dunkl(mu, g), ip, c)
    return abs(lhs + rhs) / max(abs(lhs), abs(rhs), 1.0)


def multiplication_adjoint_residuals(f: RayTestFunction, g: RayTestFunction,
                                     ip: WeightedInnerProduct, c: CyclicStructure) -> tuple[float, float]:
    """Residuals of <f, (1/x) g> = <(1/conj(x)) f, g> and <f, x g> = <conj(x) f, g>."""
    r1 = abs(
        inner_product(f, ray_mul_power(g, -1), ip, c)
        - inner_product(ray_power(f, -1, c, conjugate=True), g, ip, c)
    )
    r2 = abs(
        inner_product(f, ray_mul_power(g, 1), ip, c)
        - inner_product(ray_power(f, 1, c, conjugate=True), g, ip, c)
    )
    return r1, r2


def _random_test_function(c: CyclicStructure, rng) -> RayTestFunction:
    """p(x) exp(-x^r) with p of random degree 2..6 and standard complex
    normal coefficients."""
    deg = int(rng.integers(2, 7))
    coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return ray_poly(c, coeffs)
