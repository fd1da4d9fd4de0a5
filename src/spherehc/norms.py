"""L^p norms of zonal spherical harmonics and of Hermite polynomials in Gauss space.

All norms carry a log-scale accessor so ratios of astronomically large values
(right-hand sides reach 9^sqrt(d(d+n-1)/n)) never leave log space.  Every
zonal |u|^p integral, of Y_d or of a series, takes one path
(``_zonal_integrals``): log|u| from the plain Gegenbauer recurrence, whose
rescale shift keeps it finite past the float range, split at u's roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .quadrature import ADAPTIVE, NormValue, _exp, integrate_root_intervals

__all__ = [
    "CLOSED_FORM",
    "SphereParams",
    "NormValue",
    "sphere_lp_norm",
    "sphere_l2_norm_closed",
    "gaussian_lp_norm",
    "norm_ratio_sphere",
    "norm_ratio_gaussian",
    "zonal_power_integral",
    "zonal_lp_norm",
]

CLOSED_FORM = "closed-form"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SphereParams:
    """The n-sphere S^n in R^(n+1); zonal profiles live on [-1, 1] with lam = (n-1)/2."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.n}")

    @property
    def lam(self) -> float:
        return (self.n - 1) / 2


# the norm of Y_0 and of h_0, and every ratio with d = 0 or p = q
_ONE = NormValue(0.0, 0.0, CLOSED_FORM)


def zonal_power_integral(lam: float, d: int, p: float, tol: float) -> NormValue:
    """integral over [-1, 1] of |C_d^(lam)(t)|^p c_lam (1 - t^2)^(lam - 1/2) dt for d >= 1.

    With lam = (n - 1) / 2 this is ||Y_d||_p^p on S^n; see ``_zonal_integrals``.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return _zonal_integrals(lam, d, None, (p,), tol)[0]


def _zonal_integrals(lam: float, d: int, coeffs, exponents, tol: float) -> list[NormValue]:
    """integral over [-1, 1] of |u(t)|^p c_lam (1 - t^2)^(lam - 1/2) dt for each exponent p.

    u is C_d^(lam) when ``coeffs`` is None, else the degree-d series
    sum_k coeffs[k] C_k^(lam).  Its real roots in (-1, 1), from
    ``specfun.gegenbauer_roots`` or from its comrade matrix, split [-1, 1]
    for ``quadrature.integrate_root_intervals`` with the end exponent
    lam - 1/2, and log|u| comes from one pass of the plain recurrence per
    round, so ``log_value`` stays finite where u or the integral passes the
    float range.  Where 32 nodes do not resolve an interval (at lam ~ 500,
    say, where (1 - t^2)^(lam - 1/2) is steep) the integrator bisects in log
    space and ``method`` is ADAPTIVE.  ``error_estimate`` is the
    integrator's, plus a floor of 4 p (d + 1) eps for the rounding of the
    d-step recurrence, which the 16/32 gap does not show.
    """
    spec = specfun.GegenbauerSpec(lam, d)
    roots = specfun.gegenbauer_roots(spec) if coeffs is None else specfun._series_roots(lam, coeffs)
    ab = specfun._gegenbauer_ab(lam, d)
    log_c = math.log(specfun.c_lambda(lam))

    def log_abs(t: np.ndarray) -> np.ndarray:
        return specfun._log_abs(ab, t, coeffs)[1]

    out = []
    for p, res in zip(exponents, integrate_root_intervals(log_abs, roots, exponents, lam - 0.5, tol)):
        rel = res.error_estimate + 4.0 * p * (d + 1) * _EPS
        out.append(NormValue(res.log_value + log_c, rel, res.method, res.converged, res.panels))
    return out


def _norm_from_integral(res: NormValue, p: float) -> NormValue:
    if not math.isfinite(res.log_value):
        raise ArithmeticError(f"norm integral has log {res.log_value}, not a finite number")
    log_norm = res.log_value / p
    # the integral's error, and the rounding of the division by p
    rel = res.error_estimate / p + _EPS * abs(log_norm)
    return NormValue(log_norm, rel, res.method, res.converged, res.panels)


def sphere_lp_norm(params: SphereParams, d: int, p: float, tol: float = 1e-12) -> NormValue:
    """L^p norm of the zonal harmonic Y_d(xi) = C_d^(lam)(xi . e1) on S^n.

    Computed as (integral of |C_d|^p against the Gegenbauer weight)^(1/p) with
    the integrand split at the polynomial's roots.  n = 1 degenerates the
    weight (lam = 0), and the degree-d profile there is cos(d theta), whose
    norm has the closed form (B(1/2, (p + 1)/2) / pi)^(1/p) for every d >= 1.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if d == 0:
        return _ONE
    if params.n == 1:
        return _circle_lp_norm(p)
    return _norm_from_integral(_zonal_integrals(params.lam, d, None, (p,), tol)[0], p)


def _circle_lp_norm(p: float) -> NormValue:
    # the mean of |cos|^p over a period, B(1/2, (p + 1)/2) / pi, independent
    # of d >= 1; the band is a few eps of the logarithms summed
    log_mean = specfun.log_beta(0.5, 0.5 * (p + 1.0)) - math.log(math.pi)
    log_norm = log_mean / p
    rel = 4.0 * _EPS * (abs(log_mean) + math.log(math.pi)) / p + _EPS
    return NormValue(log_norm, rel, CLOSED_FORM)


def sphere_l2_norm_closed(params: SphereParams, d: int) -> NormValue:
    """Closed-form ||Y_d||_2 from ||Y_d||_2^2 = (n-1) / (d (2d + n - 1) B(n-1, d)).

    Note the returned value is the norm itself; square it to compare with the
    familiar identity.  d = 0 is rejected (the formula has d in a denominator;
    the degree-0 norm is 1 by convention).

    For integer n, 1 / (d B(n-1, d)) = prod_{j=1}^{n-2} (1 + d/j) = prod_{i=1}^{d}
    (1 + (n-2)/i), so the log norm is a sum of min(n - 2, d) log1p terms; a
    difference of lgamma values instead loses 5e-14 at (n, d) = (2, 400) and
    1e-10 at n = 1e5.  ``error_estimate`` is half the terms' errors, an ulp of
    each term and, for log1p(r), the rounding of r damped to eps min(1, r),
    plus eps |log norm| for the sum.  ``value`` is inf past the float range.
    """
    n = params.n
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if d < 1:
        raise ValueError("closed form needs d >= 1 (degree-0 norm is 1 by convention)")
    short, long = sorted((n - 2, d))
    ratios = [long / j for j in range(1, short + 1)]
    terms = [math.log(n - 1.0), -math.log(2.0 * d + n - 1.0), *map(math.log1p, ratios)]
    log_norm = 0.5 * math.fsum(terms)
    rounding = math.fsum(map(abs, terms)) + math.fsum(min(1.0, r) for r in ratios)
    rel = _EPS * (0.5 * rounding + abs(log_norm))
    return NormValue(log_norm, rel, CLOSED_FORM)


def gaussian_lp_norm(d: int, p: float, tol: float = 1e-12) -> NormValue:
    """||h_d||_{L^p(R, dgamma)} by the root-interval integrator on (-R, R).

    log|h_d| comes from the rescaled Hermite recurrence and the density is
    the log weight -y^2/2 - log sqrt(2 pi), so no degree overflows.  R lies
    a fixed distance past a bound on the peak of |h_d|^p exp(-y^2/2), see
    ``_gaussian_integrals``.  The error adds the tails and 4 p (d + 1) eps for
    the recurrence.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if d == 0:
        return _ONE
    return _norm_from_integral(_gaussian_integrals(d, (p,), tol)[0], p)


def _gaussian_integrals(d: int, exponents, tol: float) -> list[NormValue]:
    """E|h_d|^p (d >= 1) for each p, from one roots call and one pass per round.

    Past y_hi = (r + sqrt(r^2 + 4 p d)) / 2, with r the largest root and p the
    largest exponent, p log|h_d| - y^2/2 is past its peak, concave and of
    curvature <= -1.  So with R = y_hi + sqrt(-2 log(tol 1e-3)) the two tails
    beyond +-R together hold at most exp(p log|h_d(R)| - R^2/2) of the
    measure, which the error adds relative to the integral.
    """
    spec = specfun.HermiteSpec(d)
    roots = specfun.hermite_roots(spec)
    peak_bound = 0.5 * (roots[-1] + math.sqrt(roots[-1] ** 2 + 4.0 * max(exponents) * d))
    radius = peak_bound + math.sqrt(-2.0 * math.log(tol * 1e-3))

    def log_abs(y: np.ndarray) -> np.ndarray:
        return specfun.hermite_log_abs(spec, y)[1]

    def log_density(y: np.ndarray) -> np.ndarray:
        return -0.5 * y * y - _LOG_SQRT_2PI

    integrals = integrate_root_intervals(
        log_abs, roots, exponents, 0.0, tol, interval=(-radius, radius), log_weight=log_density
    )
    log_abs_radius = float(log_abs(np.array([radius]))[0])
    out = []
    for p, res in zip(exponents, integrals):
        # the tails relative to the integral, and the recurrence floor
        log_tail = p * log_abs_radius - 0.5 * radius * radius
        rel = res.error_estimate + _exp(log_tail - res.log_value) + 4.0 * p * (d + 1) * _EPS
        out.append(NormValue(res.log_value, rel, res.method, res.converged, res.panels))
    return out


def _ratio(nq: NormValue, np_: NormValue) -> NormValue:
    log_ratio = nq.log_value - np_.log_value
    band = nq.error_estimate + np_.error_estimate
    method = nq.method if nq.method == np_.method else ADAPTIVE
    # under a probability measure q >= p gives ||f||_q >= ||f||_p (Lyapunov),
    # so a ratio below 1 past its band comes from a wrong norm
    converged = nq.converged and np_.converged and log_ratio >= -band
    return NormValue(log_ratio, band, method, converged, nq.panels + np_.panels)


def norm_ratio_sphere(params: SphereParams, d: int, p: float, q: float, tol: float = 1e-12) -> NormValue:
    """||Y_d||_q / ||Y_d||_p on S^n, computed as exp of the log-norm difference.

    For n >= 2 both norms come from one root split and one recurrence pass.
    """
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    if d == 0 or p == q:
        return _ONE
    if params.n == 1:
        return _ratio(_circle_lp_norm(q), _circle_lp_norm(p))
    return _ratio(*map(_norm_from_integral, _zonal_integrals(params.lam, d, None, (q, p), tol), (q, p)))


def norm_ratio_gaussian(d: int, p: float, q: float, tol: float = 1e-12) -> NormValue:
    """||h_d||_q / ||h_d||_p under the standard Gaussian measure."""
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    if d == 0 or p == q:
        return _ONE
    return _ratio(*map(_norm_from_integral, _gaussian_integrals(d, (q, p), tol), (q, p)))


def zonal_lp_norm(params: SphereParams, coeffs, p: float, tol: float = 1e-12) -> NormValue:
    """||sum_k a_k Y_k||_p on S^n (n >= 2) from ``_zonal_integrals``, as for ``zonal_power_integral``."""
    if params.n < 2:
        raise ValueError(f"zonal quadrature needs n >= 2, got {params.n}")
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    coeffs = np.asarray(coeffs, dtype=float).tolist()
    return _norm_from_integral(_zonal_integrals(params.lam, len(coeffs) - 1, coeffs, (p,), tol)[0], p)
