"""The transmutation operator as a banded triangular degree map.

V is the sum over k = 0..r-1 and j = 0..k of the terms
(P_j/theta^j) T_k x^(-k) [chain] x^(k-j), where [chain] is the chain of
conjugated fractional means and the P_j expand the length-k lowering chain
through falling derivative powers; the k = 0 term, with the empty chain
P = (1), is the grade-0 projector T_0 [chain].  Every factor is
diagonal or a shift on monomials, so V is materialized as an explicit
matrix over degrees: the inverse is a back-substitution and the adjoint
reuses the same term list.

V sends exp(theta x) to the kernel E_mu exactly.  At other spectral values
the map V exp(theta lam x) differs from E_mu(lam x) whenever a correction
term with j >= 1 survives (its x^(-j) factor does not rescale with lam);
the classical r = 2 family with alpha_0 = 0 has no such terms, which is why
its transmutation identity holds on all entire functions while for r >= 3
even pure exponentials fail.  Checks below measure both sides honestly.
"""

from __future__ import annotations

import numpy as np

from ._errors import DomainError, ParameterError, SingularError
from .hilbert import RayMap
from .mehler import MehlerWeight
from .operators import apply_D, dunkl_kernel_series, v_terms
from .reports import (
    KIND_EXCEEDS_FLOOR,
    KIND_MEASURED,
    VerificationReport,
    make_report,
)
from .riemann_liouville import apply_R_adjoint, l_coefficient, l_coefficients
from .series import (
    CyclicStructure,
    LaurentSeries,
    _window,
    differentiate,
    exp_series,
    lincomb,
    series_residual,
)
from .special import IndexVector, gamma_ratio


class TransmutationMap:
    """Matrix of V over input degrees 0..N.

    Rows cover output degrees row_min..N, row_min the lowest row a term of
    ``v_terms`` reaches: -(r-1) when alpha_0 != 0 (the correction terms then
    reach below degree zero) and 0 when alpha_0 = 0.  Column n holds the
    image of x^n.
    """

    def __init__(self, mu: IndexVector, N: int):
        weight = MehlerWeight(mu)  # validates alpha_i + i/r > 0 on included dims
        r = mu.r
        self.mu = mu
        self.N = N
        terms = v_terms(mu)
        # term (k, j) reaches down to row (j - k) % r - j from its lowest column
        self.row_min = min(0, min((j - k) % r - j for k, j, _ in terms))
        rows = N - self.row_min + 1
        M = np.zeros((rows, N + 1), dtype=complex)

        # the chain of conjugated fractional means on x^m, computed once per
        # degree: the terms below reach it only at m = n + k - j = 0 (mod r),
        # m < N + r, so chain[m // r] holds degree m
        chain = fractional_mean_chain(weight, range(0, N + r, r))

        c_norm = weight.c_norm
        # term (k, j) sends x^n, n = j - k (mod r), to row n - j; a cell fixes
        # j and then k mod r, so it takes at most one term
        for k, j, coef in terms:
            n = np.arange((j - k) % r, N + 1, r)
            M[n - j - self.row_min, n] += c_norm * coef * chain[(n + k - j) // r]
        self.matrix = M
        self.c_norm = c_norm

    def _leading_block(self, N: int) -> "TransmutationMap":
        """The map over input degrees 0..N read off this one's leading block,
        without a rebuild: column n of V does not depend on the size of the
        matrix, so the block equals ``build_V(self.mu, N)`` bit for bit."""
        if N == self.N:
            return self
        block = object.__new__(type(self))
        block.mu, block.N, block.row_min, block.c_norm = self.mu, N, self.row_min, self.c_norm
        block.matrix = self.matrix[: N - self.row_min + 1, : N + 1]
        return block

    def apply(self, f: LaurentSeries) -> LaurentSeries:
        if f.n_min < 0 and f.has_principal_part(1e-300):
            raise DomainError("V acts on series without a principal part")
        out = self.matrix @ _window(f, 0, self.N)
        # rows near the top miss contributions from truncated columns
        valid = min(f.valid_order, self.N) - (self.mu.r - 1)
        return LaurentSeries(self.row_min, out, valid)

    def solve(self, f: LaurentSeries) -> LaurentSeries:
        """Back-substitution for V g = f on degrees 0..N."""
        if f.has_principal_part(1e-300):
            raise DomainError("the inverse needs a series without principal part")
        if self.row_min < 0:
            raise ParameterError("triangular inverse requires alpha_0 = 0")
        rhs = _window(f, 0, self.N)
        g = np.zeros(self.N + 1, dtype=complex)
        r = self.mu.r
        for m in range(self.N, -1, -1):
            acc = rhs[m]
            for d in range(m + 1, min(m + r - 1, self.N) + 1):
                acc -= self.matrix[m - self.row_min, d] * g[d]
            diag = self.matrix[m - self.row_min, m]
            if abs(diag) < 1e-300:
                raise SingularError(f"vanishing diagonal at degree {m}")
            g[m] = acc / diag
        valid = min(f.valid_order, self.N) - (r - 1)
        return LaurentSeries(0, g, valid)


def fractional_mean_chain(weight: MehlerWeight, degrees) -> np.ndarray:
    """Factor of the chain of conjugated fractional means on x^m for each m
    of ``degrees``: the product over the included dimensions i of
    l_(m + r - i - 1) at order beta_i = alpha_i + i/r, the grade-0 diagonal
    of V before the normalization c_mu."""
    mu, r = weight.mu, weight.mu.r
    degrees = np.asarray(degrees)
    out = np.ones(len(degrees))
    for i in weight.included:
        beta = mu.alphas[i] + i / r
        out *= l_coefficients(degrees + (r - i - 1), beta, r)
    return out


def build_V(mu: IndexVector, N: int) -> TransmutationMap:
    return TransmutationMap(mu, N)


def closed_form_V_r2(alpha: float, N: int) -> np.ndarray:
    """Matrix of c_alpha [T_0 R_(alpha+1/2) + T_1 x^(-1) R_(alpha+1/2) x]
    for mu = (0, alpha), r = 2."""
    c = 2.0 * gamma_ratio([alpha + 1.0], [alpha + 0.5, 0.5])
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for n in range(N + 1):
        if n % 2 == 0:
            M[n, n] = c * l_coefficient(n, alpha + 0.5, 2)
        else:
            M[n, n] = c * l_coefficient(n + 1, alpha + 0.5, 2)
    return M


def closed_form_V_r3(v: float, N: int) -> np.ndarray:
    """Matrix of c_v [T_0 x^(-1) R_v x + T_1 x^(-2) R_v x^2 + T_2 x^(-3) R_v x^3
    + (3v/theta) T_2 x^(-3) R_v x^2] for mu = (0, v - 1/3, -2/3), r = 3."""
    theta = CyclicStructure(3).theta
    c = 3.0 * gamma_ratio([v + 2.0 / 3.0], [v, 2.0 / 3.0])
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for n in range(N + 1):
        if n % 3 == 0:
            M[n, n] += c * l_coefficient(n + 1, v, 3)
        if n % 3 == 2:
            M[n, n] += c * l_coefficient(n + 2, v, 3)
        if n % 3 == 1:
            M[n, n] += c * l_coefficient(n + 3, v, 3)
        if n >= 1 and (n - 1) % 3 == 1:
            M[n - 1, n] += c * (3.0 * v / theta) * l_coefficient(n + 2, v, 3)
    return M


def closed_form_match_check(mu: IndexVector, N: int = 40) -> VerificationReport:
    """Generic assembly against the explicit two-term (r=2) or four-term
    (r=3) closed forms."""
    return _closed_form_report(build_V(mu, N))


def _closed_form_report(V: TransmutationMap) -> VerificationReport:
    """``closed_form_match_check`` on a map already built."""
    mu, N = V.mu, V.N
    if mu.r == 2 and mu.alphas[0] == 0.0:
        ref = closed_form_V_r2(mu.alphas[1], N)
        label = "r2"
    elif mu.r == 3 and mu.alphas[0] == 0.0 and abs(mu.alphas[2] + 2.0 / 3.0) < 1e-12:
        ref = closed_form_V_r3(mu.alphas[1] + 1.0 / 3.0, N)
        label = "r3"
    else:
        raise ParameterError("no closed form recorded for this index family")
    resid = float(np.max(np.abs(V.matrix - ref)) / max(np.max(np.abs(ref)), 1e-300))
    return make_report(
        check_id=f"transmutation.closed_form.{label}",
        params={"r": mu.r, "alphas": list(mu.alphas), "N": N},
        residual=resid,
        tolerance=1e-13,
    )


def v_maps_exp_to_kernel_check(mu: IndexVector, lam: complex, N: int) -> VerificationReport:
    """Coefficient residual between V exp(theta lam x) and E_mu(lam x).

    Exact at lam = 1 for every index, and at all lam when no correction
    term with j >= 1 survives (classical r = 2 family, degenerate index).
    Otherwise the two sides genuinely differ; the report then carries the
    measured gap.  The check id ends in ".real" or ".complex" after lam.
    """
    return _exp_to_kernel_report(build_V(mu, N), lam)


def _exp_to_kernel_report(V: TransmutationMap, lam: complex) -> VerificationReport:
    """``v_maps_exp_to_kernel_check`` on a map already built."""
    mu, N = V.mu, V.N
    c = mu.cyclic
    lhs = V.apply(exp_series(c.theta * lam, N))
    rhs = dunkl_kernel_series(mu, lam, N)
    resid = series_residual(lhs, rhs)
    exact_expected = _kernel_map_exact(mu) or lam == 1.0
    arg = "real" if complex(lam).imag == 0 else "complex"
    return make_report(
        check_id=f"transmutation.exp_to_kernel.{arg}",
        params={"r": mu.r, "alphas": list(mu.alphas), "lam": complex(lam), "N": N},
        residual=resid,
        tolerance=1e-11,
        kind="residual-below" if exact_expected else KIND_MEASURED,
        notes=[] if exact_expected else [
            "correction terms with j >= 1 do not rescale with lam; "
            "the map is only guaranteed at lam = 1 for this index"
        ],
    )


def _kernel_map_exact(mu: IndexVector) -> bool:
    # true when every surviving expansion coefficient with j >= 1 vanishes
    return all(abs(coef) <= 1e-14 for _, j, coef in v_terms(mu) if j >= 1)


def transmutation_residual(mu: IndexVector, f: LaurentSeries, N: int) -> VerificationReport:
    """Max coefficient residual of D(V f) - V(f'), reported without a
    verdict: validity depends on the input family."""
    return _transmutation_residual_report(build_V(mu, N), f)


def _transmutation_residual_report(V: TransmutationMap, f: LaurentSeries) -> VerificationReport:
    """``transmutation_residual`` on a map already built."""
    mu, N = V.mu, V.N
    resid = _intertwining_residual(V, V.apply(f), V.apply(differentiate(f)))
    return make_report(
        check_id="transmutation.intertwining_residual",
        params={"r": mu.r, "alphas": list(mu.alphas), "N": N,
                "input_degrees": [int(f.n_min), int(f.n_max)]},
        residual=resid,
        tolerance=float("nan"),
        kind=KIND_MEASURED,
    )


def _intertwining_residual(V: TransmutationMap, Vf: LaurentSeries, Vdf: LaurentSeries) -> float:
    """Coefficient residual of D(V f) against V(f'), given V f and V(f')."""
    return series_residual(apply_D(V.mu, Vf), Vdf)


def _monomials_intertwining_residual(V: TransmutationMap, degrees) -> float:
    """Largest ``transmutation_residual`` over the monomials x^n, n >= 1 in
    ``degrees``, each stored through degree V.N, read off V's columns: V x^n
    is column n and V (x^n)' is n times column n - 1, bit for bit what
    ``V.apply`` returns on them, so V is neither rebuilt nor applied."""
    valid = V.N - (V.mu.r - 1)  # V.apply's watermark on a series stored through V.N
    worst = 0.0
    for n in degrees:
        Vf = LaurentSeries(V.row_min, V.matrix[:, n], valid)
        Vdf = LaurentSeries(V.row_min, n * V.matrix[:, n - 1], valid - 1)
        worst = max(worst, _intertwining_residual(V, Vf, Vdf))
    return worst


def monomial_counterexample_check(mu: IndexVector, n: int, N: int = 40) -> VerificationReport:
    """Negative control: for r >= 3 the intertwining relation fails on
    monomials, and the failure must stay above the floor 1e-2."""
    return _monomial_counterexample_report(build_V(mu, N), n)


def _monomial_counterexample_report(V: TransmutationMap, n: int) -> VerificationReport:
    """``monomial_counterexample_check`` on a map already built, read off
    its columns."""
    mu = V.mu
    return make_report(
        check_id="transmutation.monomial_negative_control",
        params={"r": mu.r, "alphas": list(mu.alphas), "n": n},
        residual=_monomials_intertwining_residual(V, [n]),
        tolerance=1e-2,
        kind=KIND_EXCEEDS_FLOOR,
        notes=["negative_control: residual must exceed the floor"],
    )


def fourier_condition_value(coeffs: dict, c: CyclicStructure) -> float:
    """Normal-convergence bound sum_n |c_n| exp(pi |n Im(omega^k)|),
    maximized over k; finite for finite sums.  Reports carry it as the
    applicability certificate for Fourier-sum intertwining."""
    worst = 0.0
    for k in range(c.r):
        im = abs(np.imag(c.omega_pow(k)))
        total = sum(abs(v) * np.exp(np.pi * abs(n) * im) for n, v in coeffs.items())
        worst = max(worst, float(total))
    return worst


def fourier_sum_series(coeffs: dict, period: float, N: int) -> LaurentSeries:
    """Series of sum_n c_n exp(2 pi i n x / period) through degree N."""
    if not coeffs:
        raise ParameterError("need at least one Fourier coefficient")
    return lincomb((v, exp_series(2j * np.pi * n / period, N)) for n, v in coeffs.items())


def build_V_star(mu: IndexVector, a: float, n_nodes: int = 48, conjugate: bool = True):
    """Adjoint of V for <.,.>_a as a ray evaluator: g -> a RayMap whose ray m
    is row m of ``_v_star_rays``.

    The map is asked ray by ray, like any RayMap, and each ray evaluates V*
    on all rays; its fn takes an array of ray indices as well, which reads
    every ray off one evaluation.  Callers that need all rays call the fn.

    Each term of V is reversed and every factor replaced by its adjoint:
    multiplications by x^p become conj(x)^p on the rays, each fractional
    mean becomes its a-weighted adjoint integral, projectors are symmetric,
    and scalar prefactors conjugate.  With conjugate=False the bilinear
    transpose is produced instead (powers stay x^p and scalars unconjugated);
    the two coincide on the real rays of r = 2.  The adjoint integrals are
    truncated at t = 8.
    """

    def apply(g) -> RayMap:
        return RayMap(lambda m, t: _v_star_rays(mu, a, g, t, n_nodes, conjugate)[m])

    return apply


def _v_star_rays(mu: IndexVector, a: float, g, t, n_nodes: int,
                 conjugate: bool) -> np.ndarray:
    """V* g (``build_V_star``) on all r rays: row m holds its values at the
    points t of ray m.

    On ray m, T_k g = omega^(-mk) G_k with G_k = (1/r) sum_n omega^(nk)
    g(omega^n t) the grade column of g, and each chain factor
    conj(x)^p R* conj(x)^(-p) (or x^p R* x^(-p)) cancels its own phase.  So
    term (k, j) of V* is phase * t^(k-j) H_k(t) on ray m, where H_k, the
    adjoint chain on the real line applied to t^(-k) G_k, is the same for
    every ray, and the phase is omega^(-m(k-j)) (conjugate) or
    omega^(-m(k+j)) (transpose).  g is evaluated once on all rays at the
    innermost points, and each chain level is one ``apply_R_adjoint`` call
    whose trailing axis holds the grade columns.
    """
    weight = MehlerWeight(mu)
    r, c = mu.r, mu.cyclic
    t = np.atleast_1d(np.asarray(t, dtype=float))
    terms = v_terms(mu)
    grades = sorted({k for k, _, _ in terms})
    ks = np.array(grades)
    omega = np.array([c.omega_pow(n) for n in range(r)])
    # the chain's levels from the outermost in: (beta_i, p = r - i - 1)
    levels = [(mu.alphas[i] + i / r, r - i - 1) for i in weight.included]

    def columns(w):
        # t^(-k) G_k(w) for each grade k, one column each
        rows = g.on_ray(np.arange(r), w)
        acc = np.zeros((len(w), len(grades)), dtype=complex)
        for n in range(r):
            acc += rows[n][:, None] * omega[ks * n % r]
        return acc / r * w[:, None] ** -ks

    def chain(w, depth=0):
        if depth == len(levels):
            return columns(w)
        beta, p = levels[depth]
        inner = apply_R_adjoint(beta, a, lambda s: s[:, None] ** -p * chain(s, depth + 1),
                                w, r, 8.0, n_nodes)
        return w[:, None] ** p * inner

    H = chain(t)
    rays = np.arange(r)
    out = np.zeros((r, len(t)), dtype=complex)
    for k, j, coef in terms:
        phase = omega[-rays * (k - j if conjugate else k + j) % r]
        scalar = np.conj(coef) if conjugate else coef
        out += (scalar * phase)[:, None] * (t ** (k - j) * H[:, grades.index(k)])
    return weight.c_norm * out
