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
from .quadrature import IntegralResult, _exp, integrate_root_intervals

__all__ = [
    "CLOSED_FORM",
    "SphereParams",
    "NormValue",
    "RatioValue",
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


@dataclass(frozen=True)
class NormValue:
    """An L^p norm with provenance.

    ``value`` is exp(log_value) and may overflow to inf for extreme inputs;
    ``log_value`` is always finite.  ``error_estimate`` is relative to value
    (zero for closed forms up to rounding).  ``method`` is CLOSED_FORM or the
    integral's own: ``quadrature.GAUSS_JACOBI`` when the first round of root
    intervals converged, ``quadrature.ADAPTIVE`` when it bisected.
    """

    value: float
    p: float
    error_estimate: float
    method: str
    log_value: float
    converged: bool = True


@dataclass(frozen=True)
class RatioValue:
    """A norm ratio ||.||_q / ||.||_p with combined relative error estimate."""

    value: float
    log_value: float
    error_estimate: float
    converged: bool = True


def zonal_power_integral(lam: float, d: int, p: float, tol: float) -> IntegralResult:
    """integral over [-1, 1] of |C_d^(lam)(t)|^p c_lam (1 - t^2)^(lam - 1/2) dt for d >= 1.

    With lam = (n - 1) / 2 this is ||Y_d||_p^p on S^n; see ``_zonal_integrals``.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return _zonal_integrals(lam, d, None, (p,), tol)[0]


def _zonal_integrals(lam: float, d: int, coeffs, exponents, tol: float) -> list[IntegralResult]:
    """integral over [-1, 1] of |u(t)|^p c_lam (1 - t^2)^(lam - 1/2) dt for each exponent p.

    u is C_d^(lam) when ``coeffs`` is None, else the degree-d series
    sum_k coeffs[k] C_k^(lam).  Its real roots in (-1, 1), from
    ``specfun.gegenbauer_roots`` or from its comrade matrix, split [-1, 1]
    for ``quadrature.integrate_root_intervals`` with the end exponent
    lam - 1/2, and log|u| comes from one pass of the plain recurrence per
    round, so ``log_value`` stays finite where u or the integral passes the
    float range.  Where 32 nodes do not resolve an interval (at lam ~ 500,
    say, where (1 - t^2)^(lam - 1/2) is steep) the integrator bisects in log
    space and ``method`` is ADAPTIVE.  ``relative_error`` is the
    integrator's, plus a floor of 4 p (d + 1) eps for the rounding of the
    d-step recurrence, which the 16/32 gap does not show.
    """
    spec = specfun.GegenbauerSpec(lam, d)
    roots = specfun.gegenbauer_roots(spec).roots if coeffs is None else specfun._series_roots(lam, coeffs)
    ab = specfun._gegenbauer_ab(lam, d)
    log_c = math.log(specfun.c_lambda(lam))

    def log_abs(t: np.ndarray) -> np.ndarray:
        return specfun._log_abs(ab, t, coeffs)[1]

    out = []
    for p, res in zip(exponents, integrate_root_intervals(log_abs, roots, exponents, lam - 0.5, tol)):
        rel = res.relative_error + 4.0 * p * (d + 1) * _EPS
        out.append(
            IntegralResult.from_log(res.log_value + log_c, rel, res.subintervals_used, res.converged, res.method)
        )
    return out


def _norm_from_integral(res: IntegralResult, p: float) -> NormValue:
    if not (res.value > 0 and math.isfinite(res.log_value)):
        raise ArithmeticError(f"norm integral is {res.value}, not a finite positive number")
    log_norm = res.log_value / p
    # the integral's error, and the rounding of the division by p
    rel = res.relative_error / p + _EPS * abs(log_norm)
    return NormValue(_exp(log_norm), p, rel, res.method, log_norm, res.converged)


def sphere_lp_norm(
    params: SphereParams,
    d: int,
    p: float,
    tol: float = 1e-12,
    circle_convention: str | None = None,
) -> NormValue:
    """L^p norm of the zonal harmonic Y_d(xi) = C_d^(lam)(xi . e1) on S^n.

    Computed as (integral of |C_d|^p against the Gegenbauer weight)^(1/p) with
    the integrand split at the polynomial's roots.  n = 1 degenerates the
    weight (lam = 0); the paper fixes no degree normalization there, so the
    caller must opt in with ``circle_convention="cosine"`` (profile
    cos(d theta)), whose norm has the closed form
    (B(1/2, (p + 1)/2) / pi)^(1/p) for every d >= 1.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if params.n == 1:
        return _circle_lp_norm(d, p, circle_convention)
    if d == 0:
        return NormValue(1.0, p, 0.0, CLOSED_FORM, 0.0)
    return _norm_from_integral(_zonal_integrals(params.lam, d, None, (p,), tol)[0], p)


def _circle_lp_norm(d: int, p: float, convention: str | None) -> NormValue:
    if convention != "cosine":
        raise ValueError(
            "norms on S^1 need an explicit convention: pass circle_convention='cosine' "
            "for the degree-d zonal profile cos(d theta)"
        )
    if d == 0:
        return NormValue(1.0, p, 0.0, CLOSED_FORM, 0.0)
    # the mean of |cos|^p over a period, B(1/2, (p + 1)/2) / pi, independent
    # of d >= 1; the band is a few eps of the logarithms summed
    log_mean = specfun.log_beta(0.5, 0.5 * (p + 1.0)) - math.log(math.pi)
    log_norm = log_mean / p
    rel = 4.0 * _EPS * (abs(log_mean) + math.log(math.pi)) / p + _EPS
    return NormValue(_exp(log_norm), p, rel, CLOSED_FORM, log_norm)


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
    return NormValue(_exp(log_norm), 2.0, rel, CLOSED_FORM, log_norm)


def gaussian_lp_norm(d: int, p: float, tol: float = 1e-12) -> NormValue:
    """||h_d||_{L^p(R, dgamma)} by the root-interval integrator on (-R, R).

    log|h_d| comes from the rescaled Hermite recurrence and the density is
    the log weight -y^2/2 - log sqrt(2 pi), so no degree overflows.  R lies
    a fixed distance past a bound on the peak of |h_d|^p exp(-y^2/2), see
    ``_gaussian_norms``.  The error adds the tails and 4 p (d + 1) eps for
    the recurrence.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if d == 0:
        return NormValue(1.0, p, 0.0, CLOSED_FORM, 0.0)
    return _gaussian_norms(d, (p,), tol)[0]


def _gaussian_norms(d: int, exponents, tol: float) -> list[NormValue]:
    """||h_d||_p (d >= 1) for each p, from one roots call and one pass per round.

    Past y_hi = (r + sqrt(r^2 + 4 p d)) / 2, with r the largest root and p the
    largest exponent, p log|h_d| - y^2/2 is past its peak, concave and of
    curvature <= -1.  So with R = y_hi + sqrt(-2 log(tol 1e-3)) the two tails
    beyond +-R together hold at most exp(p log|h_d(R)| - R^2/2) of the
    measure, which the error adds relative to the integral.
    """
    spec = specfun.HermiteSpec(d)
    roots = specfun.hermite_roots(spec).roots
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
        rel = res.relative_error + _exp(log_tail - res.log_value) + 4.0 * p * (d + 1) * _EPS
        res = IntegralResult.from_log(res.log_value, rel, res.subintervals_used, res.converged, res.method)
        out.append(_norm_from_integral(res, p))
    return out


def _ratio(nq: NormValue, np_: NormValue) -> RatioValue:
    log_ratio = nq.log_value - np_.log_value
    return RatioValue(
        _exp(log_ratio),
        log_ratio,
        nq.error_estimate + np_.error_estimate,
        nq.converged and np_.converged,
    )


def norm_ratio_sphere(
    params: SphereParams,
    d: int,
    p: float,
    q: float,
    tol: float = 1e-12,
    circle_convention: str | None = None,
) -> RatioValue:
    """||Y_d||_q / ||Y_d||_p on S^n, computed as exp of the log-norm difference.

    For n >= 2 both norms come from one root split and one recurrence pass.
    """
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    if d == 0 or p == q:
        return RatioValue(1.0, 0.0, 0.0)
    if params.n == 1:
        return _ratio(
            sphere_lp_norm(params, d, q, tol, circle_convention),
            sphere_lp_norm(params, d, p, tol, circle_convention),
        )
    return _ratio(*map(_norm_from_integral, _zonal_integrals(params.lam, d, None, (q, p), tol), (q, p)))


def norm_ratio_gaussian(d: int, p: float, q: float, tol: float = 1e-12) -> RatioValue:
    """||h_d||_q / ||h_d||_p under the standard Gaussian measure."""
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    if d == 0 or p == q:
        return RatioValue(1.0, 0.0, 0.0)
    return _ratio(*_gaussian_norms(d, (q, p), tol))


def zonal_lp_norm(params: SphereParams, coeffs, p: float, tol: float = 1e-12) -> NormValue:
    """||sum_k a_k Y_k||_p on S^n (n >= 2) from ``_zonal_integrals``, as for ``zonal_power_integral``."""
    if params.n < 2:
        raise ValueError(f"zonal quadrature needs n >= 2, got {params.n}")
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    coeffs = np.asarray(coeffs, dtype=float).tolist()
    return _norm_from_integral(_zonal_integrals(params.lam, len(coeffs) - 1, coeffs, (p,), tol)[0], p)
