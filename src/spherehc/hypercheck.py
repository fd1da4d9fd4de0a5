"""Inequality checks, constants, expansions, and the (n, d) counterexample scanner.

Covers the necessary-condition boundary, the summation lemma behind the small-
dimension log-Sobolev argument, entropy inequalities, the large-dimension
counterexample inequality and its Hermite-side contradiction engine, and a
grid scanner that maps where the zonal witness breaks the norm bound.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import norms, specfun
from .norms import SphereParams
from .quadrature import integrate_piecewise
from .verdict import FAILS, HOLDS, Verdict, rounding_allowance

__all__ = [
    "NonnegativityError",
    "ExponentPair",
    "ZonalPolynomial",
    "ScanReport",
    "NecessityResult",
    "RHS_BECKNER",
    "RHS_SQRT_EIGENVALUE",
    "eigenvalue_sqrt_laplacian",
    "poisson_semigroup_apply",
    "heat_condition",
    "poisson_condition_ii",
    "count1_check",
    "utol1_check",
    "lemma_check",
    "lemma_table",
    "lemma_all",
    "h_function",
    "beckner_constant",
    "entropy_functional",
    "logsob_check",
    "perturbative_necessity",
    "hermite_bound_check",
    "hermite_growth_rate",
    "counterexample_scan",
    "random_zonal_polynomial",
]

RHS_BECKNER = "beckner"
RHS_SQRT_EIGENVALUE = "sqrt-eigenvalue"

_ZONAL_SCAN_NOTE = (
    "upper bound for n0 restricted to zonal Gegenbauer witnesses Y_d"
)


class NonnegativityError(ValueError):
    """The polynomial takes negative values where g >= 0 is required."""


@dataclass(frozen=True)
class ExponentPair:
    """Exponents 1 < p <= q.  The critical time solves e^{-2 t sqrt(n)} = (p-1)/(q-1)."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p <= self.q):
            raise ValueError(f"need 1 < p <= q, got ({self.p}, {self.q})")

    def t_star(self, n: int) -> float:
        """Boundary time of the necessary condition on S^n."""
        if n < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {n}")
        return math.log((self.q - 1.0) / (self.p - 1.0)) / (2.0 * math.sqrt(n))


@dataclass(frozen=True)
class ZonalPolynomial:
    """g = sum_k coeffs[k] Y_k on S^n, with Y_k the zonal Gegenbauer harmonic."""

    n: int
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.n < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.n}")
        if not any(c != 0.0 for c in self.coeffs):
            raise ValueError("need at least one nonzero coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def profile(self, t) -> float | np.ndarray:
        """Pointwise value as a function of t = xi . e1 (requires n >= 2)."""
        if self.n < 2:
            raise ValueError("zonal profiles need n >= 2")
        return specfun.gegenbauer_series((self.n - 1) / 2, self.coeffs, t)


def eigenvalue_sqrt_laplacian(n: int, d: int) -> float:
    """sqrt(d (d + n - 1)): the sqrt(-Laplacian) eigenvalue on degree-d harmonics."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got ({n}, {d})")
    return math.sqrt(d * (d + n - 1.0))


def poisson_semigroup_apply(g: ZonalPolynomial, t: float) -> ZonalPolynomial:
    """Damp each degree-k coefficient by exp(-t sqrt(k (k + n - 1)))."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return ZonalPolynomial(
        g.n,
        tuple(
            a * math.exp(-t * eigenvalue_sqrt_laplacian(g.n, k))
            for k, a in enumerate(g.coeffs)
        ),
    )


def _condition_rhs_log(p: float, q: float) -> float:
    # log of sqrt((p-1)/(q-1)); p == q means ratio 1 even at p = q = 1
    if p == q:
        return 0.0
    if p <= 1.0:
        return -math.inf
    return 0.5 * (math.log(p - 1.0) - math.log(q - 1.0))


def heat_condition(n: int, p: float, q: float, t: float) -> Verdict:
    """Closed-form boundary of heat hypercontractivity: e^{-t n} <= sqrt((p-1)/(q-1)).

    Compared in log scale; boundary equality counts as holds.
    """
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return Verdict.exact(-t * n, _condition_rhs_log(p, q))


def poisson_condition_ii(n: int, p: float, q: float, t: float) -> Verdict:
    """Necessary condition for the Poisson semigroup: e^{-t sqrt(n)} <= sqrt((p-1)/(q-1))."""
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return Verdict.exact(-t * math.sqrt(n), _condition_rhs_log(p, q))


def count1_check(n: int, d: int, p: float, q: float, tol: float = 1e-12) -> Verdict:
    """Zonal-witness inequality at the critical time, in log scale.

    lhs = log(||Y_d||_q / ||Y_d||_p);
    rhs = (1/2) sqrt(d (d + n - 1)/n) log((q-1)/(p-1)).
    """
    if not (1.0 < p <= q):
        raise ValueError(f"need 1 < p <= q, got ({p}, {q})")
    if d < 1 or n < 2:
        raise ValueError(f"need n >= 2 and d >= 1, got ({n}, {d})")
    if p == q:
        # both sides are exactly zero in log scale; boundary equality holds
        return Verdict.exact(0.0, 0.0)
    ratio = norms.norm_ratio_sphere(SphereParams(n), d, p, q, tol)
    lhs = ratio.log_value
    rhs = 0.5 * math.sqrt(d * (d + n - 1.0) / n) * math.log((q - 1.0) / (p - 1.0))
    return Verdict.compare(lhs, rhs, ratio.error_estimate + rounding_allowance(lhs, rhs), ratio.converged)


def utol1_check(n: int, d: int, tol: float = 1e-12) -> Verdict:
    """The explicit p=2, q=4 counterexample inequality, evaluated directly.

    lhs = log integral |C_d^((n-1)/2)(t)|^4 (1 - t^2)^((n-2)/2) dt;
    rhs = log of 9^sqrt(d(d+n-1)/n) (n-1)^2 B(1/2, n/2) / (d^2 (2d+n-1)^2 B(n-1,d)^2).

    Independent of count1_check on the right side (the closed-form L^2 norm
    instead of a quadrature one); the two must agree in status on every grid
    cell.  The Beta functions are taken as (n - 1)^2 / (d^2 (2d + n - 1)^2
    B(n-1, d)^2) = ||Y_d||_2^4 and B(1/2, n/2) = 1 / c_lam, both without
    lgamma cancellation, and the band adds 4 times the closed form's.  The
    lhs is ``norms.zonal_power_integral``'s log ||Y_d||_4^4 minus log c_lam.
    """
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got ({n}, {d})")
    log_c = math.log(specfun.c_lambda((n - 1) / 2))
    res = norms.zonal_power_integral((n - 1) / 2, d, 4.0, tol)
    lhs = res.log_value - log_c
    closed = norms.sphere_l2_norm_closed(SphereParams(n), d)
    rhs = math.sqrt(d * (d + n - 1.0) / n) * math.log(9.0) + 4.0 * closed.log_value - log_c
    band = res.error_estimate + rounding_allowance(lhs, rhs) + 4.0 * closed.error_estimate
    return Verdict.compare(lhs, rhs, band, res.converged)


def lemma_check(n: int, k: int) -> Verdict:
    """n sum_{m=0}^{k-1} 1/(2m+n) <= sqrt(k (k + n - 1)/n), both sides closed form.

    Equality at k = 1 for every n; the inequality holds for all k >= 1 when
    n is 2 or 3 and breaks down from n = 4 on.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got ({n}, {k})")
    lhs = n * math.fsum(1.0 / (2.0 * m + n) for m in range(k))
    rhs = math.sqrt(k * (k + n - 1.0) / n)
    return Verdict.exact(lhs, rhs)


def lemma_table(n: int, k_max: int) -> list[Verdict]:
    """lemma_check for k = 1..k_max in one cumulative-sum pass."""
    if n < 1 or k_max < 1:
        raise ValueError(f"need n >= 1 and k_max >= 1, got ({n}, {k_max})")
    m = np.arange(k_max, dtype=float)
    lhs = n * np.cumsum(1.0 / (2.0 * m + n))
    k = np.arange(1, k_max + 1, dtype=float)
    rhs = np.sqrt(k * (k + n - 1.0) / n)
    return [Verdict.exact(float(a), float(b)) for a, b in zip(lhs, rhs)]


def h_function(n: int, k: int) -> float:
    """2/n + ln((k + n/2 - 1)/(n/2)) - (2/n) sqrt(k (k + n - 1)/n).

    Decreasing from k = 2 on for n <= 3; negative from k = 2 on for n = 2 and
    from k = 4 on for n = 3, which closes the lemma for large k (``lemma_all``).
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got ({n}, {k})")
    half_n = 0.5 * n
    return (
        2.0 / n
        + math.log((k + half_n - 1.0) / half_n)
        - (2.0 / n) * math.sqrt(k * (k + n - 1.0) / n)
    )


class LemmaResult(NamedTuple):
    status: str
    k: int


def _monotonicity_coefficients(n: int, k0: int) -> list:
    """P(k) = (k + n/2 - 1)^2 (2k + n - 1)^2 - n^3 k (k + n - 1) at k = k0 + s,
    as exact coefficients in s (Fractions), lowest first."""
    from fractions import Fraction  # imported here: 2-3 ms on every import of the package

    def expand(*factors):  # the product of the linear factors c + m s
        out = [Fraction(1)]
        for c, m in factors:
            out = [c * a + m * b for a, b in zip(out + [0], [0] + out)]
        return out

    half, odd = k0 + Fraction(n, 2) - 1, Fraction(2 * k0 + n - 1)
    square = expand((half, 1), (half, 1), (odd, 2), (odd, 2))
    cross = expand((Fraction(k0), 1), (Fraction(k0 + n - 1), 1))
    return [a - n**3 * b for a, b in zip(square, cross + [0, 0])]


def lemma_all(n: int) -> LemmaResult:
    """The summation lemma for every k >= 1: ``(fails, first failing k)`` or ``(holds, k0)``.

    lemma_check runs for k = 1, 2, ... to the first failure, or to the first
    k0 >= 2 with h(k0) < 0 beyond its rounding and every coefficient of
    P(k0 + s) in s a positive rational.  Then lhs - rhs <= (n/2) h(k) <= (n/2)
    h(k0) < 0 for all k >= k0: the first step compares the sum with an
    integral, the second holds as h' < 0 is P(k) > 0 (squaring positive sides).
    """
    for k in itertools.count(1):
        v = lemma_check(n, k)
        if v.status == FAILS:
            return LemmaResult(FAILS, k)
        h = h_function(n, k)
        # h's three terms are at most |h| + (4/n)(1 + rhs) in size together
        if k >= 2 and h < -rounding_allowance(h, 4.0 / n * (1.0 + v.rhs)):
            if all(c > 0 for c in _monotonicity_coefficients(n, k)):
                return LemmaResult(HOLDS, k)


def beckner_constant(n: int, k: int) -> float:
    """Conformal log-Sobolev coefficient Delta_n(k) = 2 n sum_{m=0}^{k-1} 1/(2m+n)."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got ({n}, {k})")
    return 2.0 * n * math.fsum(1.0 / (2.0 * m + n) for m in range(k))


def _critical_values(g: ZonalPolynomial) -> tuple[tuple[float, ...], np.ndarray]:
    # the profile is least at an end or at a real root of its derivative,
    # 2 lam sum_{k>=1} a_k C_{k-1}^(lam+1) (DLMF 18.9.19); those roots, its values
    critical = specfun._series_roots((g.n - 1) / 2 + 1.0, g.coeffs[1:])
    return critical, np.asarray(g.profile(np.array([-1.0, 1.0, *critical])), dtype=float)


def _require_nonnegative(g: ZonalPolynomial) -> tuple[float, ...]:
    critical, prof = _critical_values(g)
    floor = -1e-12 * max(1.0, float(np.max(np.abs(prof))))
    if float(np.min(prof)) < floor:
        raise NonnegativityError(
            f"zonal polynomial dips to {float(np.min(prof)):.3e}; entropy checks need g >= 0"
        )
    return critical


def _entropy_with_error(g: ZonalPolynomial, tol: float) -> tuple[float, float, bool, list[float]]:
    """Entropy of g, its error, convergence, and a_k^2 ||Y_k||_2^2 for each degree k.

    By orthogonality the terms sum to the mass integral g^2 dsigma (||Y_0||_2 = 1).
    The panels start at the real roots of g' from the sign check, where
    u^2 log u^2 is least smooth.
    """
    critical = _require_nonnegative(g)
    params = SphereParams(g.n)
    closed = [norms.sphere_l2_norm_closed(params, k) for k in range(1, len(g.coeffs))]
    terms = [g.coeffs[0] ** 2, *(a * a * math.exp(2.0 * v.log_value) for a, v in zip(g.coeffs[1:], closed))]
    rel = max((2.0 * v.error_estimate for v in closed), default=0.0)
    mass = math.fsum(terms)
    if not 0.0 < mass < math.inf:
        raise ArithmeticError(f"mass integral is {mass}, not a positive finite float")
    lam = params.lam
    coeffs = np.asarray(g.coeffs, dtype=float)

    def entropy_integrand(t: np.ndarray) -> np.ndarray:
        u = np.asarray(specfun.gegenbauer_series(lam, coeffs, t), dtype=float)
        usq = u * u
        # u^2 log u^2, with 0 log 0 = 0
        return usq * np.log(np.where(usq > 0.0, usq, 1.0))

    # the integrator carries the weight (1 - t^2)^(lam - 1/2); c_lam normalizes it
    ent = integrate_piecewise(entropy_integrand, critical, (-1.0, 1.0), tol, end_exponent=lam - 0.5)
    c = specfun.c_lambda(lam)
    value = c * ent.value - mass * math.log(mass)
    err = c * ent.error_estimate + rel * mass * (abs(math.log(mass)) + 1.0)
    return value, err, ent.converged, terms


def entropy_functional(g: ZonalPolynomial, tol: float = 1e-10) -> float:
    """integral g^2 ln g^2 dsigma - (integral g^2 dsigma) ln(integral g^2 dsigma).

    Requires g >= 0 pointwise (checked at the ends and at the real roots of
    g' from its comrade matrix; raises NonnegativityError otherwise).  The
    integral is split at those roots.  Homogeneous of degree 2 in g.
    """
    return _entropy_with_error(g, tol)[0]


def logsob_check(g: ZonalPolynomial, rhs_kind: str, tol: float = 1e-10) -> Verdict:
    """Entropy of g against sum_k c_k(n) a_k^2 ||Y_k||_2^2.

    ``rhs_kind`` selects c_k: "beckner" uses Delta_n(k), "sqrt-eigenvalue"
    uses 2 sqrt(k (k + n - 1)/n).  The k = 0 coefficient is zero either way.
    """
    if rhs_kind not in (RHS_BECKNER, RHS_SQRT_EIGENVALUE):
        raise ValueError(f"unknown rhs kind {rhs_kind!r}")
    if not any(g.coeffs[1:]):
        # a constant g: its entropy and every term of the sum are exactly 0
        _require_nonnegative(g)
        return Verdict.exact(0.0, 0.0)
    lhs, err, converged, terms = _entropy_with_error(g, tol)
    if rhs_kind == RHS_BECKNER:
        coefficients = [beckner_constant(g.n, k) for k in range(len(terms))]
    else:
        coefficients = [2.0 * math.sqrt(k * (k + g.n - 1.0) / g.n) for k in range(len(terms))]
    rhs = math.fsum(c * term for c, term in zip(coefficients, terms))
    return Verdict.compare(lhs, rhs, err + rounding_allowance(lhs, rhs), converged)


class NecessityResult(NamedTuple):
    measured_lhs: float
    measured_rhs: float
    predicted_lhs: float
    predicted_rhs: float
    band: float
    converged: bool


def perturbative_necessity(
    n: int, p: float, q: float, t: float, eps: float, tol: float = 1e-12
) -> NecessityResult:
    """Norms of 1 + eps Y_1 before and after the semigroup vs their Taylor forms.

    measured_lhs  = ||e^{-t sqrt(-Lap)} (1 + eps Y_1)||_q        (quadrature)
    measured_rhs  = ||1 + eps Y_1||_p                            (quadrature)
    predicted_lhs = 1 + (q-1)/2 eps^2 e^{-2 t sqrt(n)} ||Y_1||_2^2
    predicted_rhs = 1 + (p-1)/2 eps^2 ||Y_1||_2^2

    ``band`` is measured_lhs err_q + measured_rhs err_p from the two norms'
    relative errors, and ``converged`` holds when both norms converged.
    Requires |eps| max|Y_1| < 1 so the perturbed function stays positive.
    The predictions are the eps^2 Taylor terms: they track the measured norms
    only while (q - 1) |eps| max|Y_1| is small, with max|Y_1| = n - 1.  On
    S^2 at p = 2, q = 4, eps = 0.1 (product 0.3) predicted_lhs is within
    3.6e-6 of the measured 1.0016631; at p = q = 1e6, eps = 1e-2 (product
    1e4) it reads 17.67 against a measured 1.0100.
    """
    if not (1.0 < p <= q):
        raise ValueError(f"need 1 < p <= q, got ({p}, {q})")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if abs(eps) * (n - 1.0) >= 1.0:
        raise NonnegativityError(
            f"|eps| * max|Y_1| = {abs(eps) * (n - 1.0):.3g} >= 1; 1 + eps Y_1 goes negative"
        )
    params = SphereParams(n)
    y1_sq = math.exp(2.0 * norms.sphere_l2_norm_closed(params, 1).log_value)
    damp = math.exp(-t * math.sqrt(n))
    g = ZonalPolynomial(n, (1.0, eps))
    g_t = poisson_semigroup_apply(g, t)
    lhs = norms.zonal_lp_norm(params, g_t.coeffs, q, tol)
    rhs = norms.zonal_lp_norm(params, g.coeffs, p, tol)
    predicted_lhs = 1.0 + 0.5 * (q - 1.0) * eps * eps * damp * damp * y1_sq
    predicted_rhs = 1.0 + 0.5 * (p - 1.0) * eps * eps * y1_sq
    band = lhs.value * lhs.error_estimate + rhs.value * rhs.error_estimate
    return NecessityResult(lhs.value, rhs.value, predicted_lhs, predicted_rhs, band, lhs.converged and rhs.converged)


def hermite_bound_check(d: int, p: float, q: float, tol: float = 1e-12) -> Verdict:
    """Gaussian-side inequality ||h_d||_q / ||h_d||_p <= ((q-1)/(p-1))^(sqrt(d)/2).

    This is what the zonal-witness inequality becomes in the n -> inf limit;
    its eventual failure in d is the contradiction engine.
    """
    if not (1.0 < p <= q):
        raise ValueError(f"need 1 < p <= q, got ({p}, {q})")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if p == q:
        return Verdict.exact(0.0, 0.0)
    ratio = norms.norm_ratio_gaussian(d, p, q, tol)
    lhs = ratio.log_value
    rhs = 0.5 * math.sqrt(d) * math.log((q - 1.0) / (p - 1.0))
    return Verdict.compare(lhs, rhs, ratio.error_estimate + rounding_allowance(lhs, rhs), ratio.converged)


def hermite_growth_rate(d: int, p: float, q: float, tol: float = 1e-12) -> float:
    """(||h_d||_q / ||h_d||_p)^(1/d), computed in log scale.

    Converges to sqrt((q-1)/(max(p,2)-1)) as d grows.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if not q > max(p, 2.0):
        raise ValueError(f"growth-rate limit needs q > max(p, 2), got ({p}, {q})")
    ratio = norms.norm_ratio_gaussian(d, p, q, tol)
    return math.exp(ratio.log_value / d)


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Grid of count1_check verdicts over (n, d) at fixed exponents.

    ``first_failure`` is the lexicographically smallest failing cell;
    ``n0_estimate`` is the smallest scanned n with any failing d and is only
    an upper bound for the true threshold (zonal witnesses only).
    """

    exponents: ExponentPair
    grid: dict[tuple[int, int], Verdict]
    first_failure: tuple[int, int] | None
    n0_estimate: int | None
    note: str = _ZONAL_SCAN_NOTE


def _scan_cell(args: tuple[int, int, float, float, float]) -> tuple[tuple[int, int], Verdict]:
    n, d, p, q, tol = args
    return (n, d), count1_check(n, d, p, q, tol)


def counterexample_scan(
    p: float,
    q: float,
    n_range,
    d_range,
    tol: float = 1e-12,
    jobs: int = 1,
) -> ScanReport:
    """Evaluate count1_check over the (n, d) grid and locate the failure frontier.

    Cells are merged by key so the report is deterministic regardless of the
    worker count.  At most min(jobs, cells, CPU count) workers start, and
    none when that is 1.  Inconclusive cells are reported as such, never
    counted as failures.
    """
    exponents = ExponentPair(p, q)
    if not q > max(2.0, p):
        raise ValueError(f"counterexample scan needs q > max(2, p), got ({p}, {q})")
    cells = sorted((int(n), int(d)) for n in n_range for d in d_range)
    tasks = [(n, d, p, q, tol) for n, d in cells]
    # with fork the pool starts all its workers at once: none past the CPUs or cells
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing costs every import of the package 12-24 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_scan_cell, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        results = dict(map(_scan_cell, tasks))
    grid = {key: results[key] for key in cells}
    failures = [key for key in cells if grid[key].status == FAILS]
    first_failure = failures[0] if failures else None
    n0_estimate = min(n for n, _ in failures) if failures else None
    return ScanReport(exponents, grid, first_failure, n0_estimate)


def random_zonal_polynomial(n: int, max_degree: int, rng: np.random.Generator) -> ZonalPolynomial:
    """Random nonnegative zonal polynomial of the given degree.

    Gaussian coefficients with decaying scale; the constant term is shifted so
    the profile clears zero with a positive margin over a grid, and by the
    shortfall if its minimum (at an end or critical point) is below half that.
    """
    if max_degree < 0:
        raise ValueError(f"degree must be >= 0, got {max_degree}")
    coeffs = rng.normal(size=max_degree + 1) / (1.0 + np.arange(max_degree + 1))
    grid = np.linspace(-1.0, 1.0, 2049)
    prof = np.asarray(specfun.gegenbauer_series((n - 1) / 2, coeffs, grid), dtype=float)
    lo = float(np.min(prof))
    shift = -lo + 0.01 * (abs(lo) + 1.0) + 0.05 * abs(rng.normal())
    coeffs[0] += shift
    least = float(np.min(_critical_values(ZonalPolynomial(n, tuple(coeffs)))[1]))
    if least < 0.5 * (shift + lo):
        coeffs[0] += (shift + lo) - least
    return ZonalPolynomial(n, tuple(coeffs))
