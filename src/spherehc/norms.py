"""L^p norms of zonal spherical harmonics and of Hermite polynomials in Gauss space.

All norms carry a log-scale accessor so ratios of astronomically large values
(right-hand sides reach 9^sqrt(d(d+n-1)/n)) never leave log space.  The scaling
prefactor d!/(2 lam)^(d/2) cancels in every ratio, so the scaled Gegenbauer
evaluator is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .quadrature import (
    ADAPTIVE,
    IntegralResult,
    gaussian_truncation_radius,
    integrate_piecewise,
    integrate_root_intervals,
)

__all__ = [
    "QUADRATURE",
    "CLOSED_FORM",
    "CIRCLE_FORMULA",
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

QUADRATURE = "quadrature"
CLOSED_FORM = "closed-form"
CIRCLE_FORMULA = "circle-formula"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_ROUNDING = 5e-15
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
    (zero for closed forms up to rounding).
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


def zonal_power_integral(
    lam: float, d: int, p: float, tol: float, normalized: bool = True
) -> IntegralResult:
    """integral over [-1, 1] of |C_d^(lam)(t)|^p (1 - t^2)^(lam - 1/2) dt, rescaled.

    Returned is the integral of the *scaled* profile |G_d(s)|^p,
    G_d(s) = (d! / (2 lam)^(d/2)) C_d^(lam)(s / sqrt(2 lam)), against the
    weight: the raw integral equals the result times ((2 lam)^(d/2) / d!)^p.
    With ``normalized`` the weight carries c_lam (probability normalization);
    without it the bare weight of the counterexample inequality is used.

    Rule: the roots of C_d^(lam) split [-1, 1] into d + 1 intervals, and each
    gets one 16- and one 32-node Gauss-Jacobi rule with exponents (p, p)
    between roots and (lam - 1/2, p) on the two end intervals
    (``quadrature.integrate_root_intervals``).  log|G| comes from
    ``specfun.gegenbauer_log_abs_scaled``, which keeps the recurrence's
    power-of-two shift, and the nodes are summed as a logsumexp of
    p log|G| + log w, so ``log_value`` stays finite where G or |G|^p
    overflows.  ``norm_ratio_sphere`` integrates both exponents of a ratio in
    one such pass.

    Error (``relative_error``): the relative gap between the two rule sizes,
    plus the rounding of the log-space sum, plus a floor of 4 p (d + 1) eps
    for the rounding of the d-step recurrence; neither rounding term shows in
    the gap.  The rule counts as converged when the gap is within ``tol``
    plus the log-sum rounding, so a tighter ``tol`` does not force the
    fallback, nor does a log integral so large that one ulp of it exceeds
    ``tol``.

    Fallback: when the gap misses that (for example at lam ~ 500, where
    (1 - t^2)^(lam - 1/2) is too steep for 32 nodes) the integral is redone by
    adaptive panels split at the roots (``quadrature.integrate_piecewise``):
    panels touching t = +-1 carry the end exponent lam - 1/2 and panels
    touching a root carry p, each as a Gauss-Jacobi pair, so the panels
    refine only where the integrand is not already resolved.  The integrand
    is exponentiated relative to the rule's estimate so it stays finite where
    the integral does not fit a float; ``method`` records the path taken.
    """
    return _zonal_power_integrals(lam, d, (p,), tol, normalized)[0]


def _zonal_power_integrals(
    lam: float, d: int, exponents, tol: float, normalized: bool = True
) -> list[IntegralResult]:
    """``zonal_power_integral`` for each exponent, from one root split and one recurrence pass.

    Each exponent whose rule misses ``tol`` falls back to the adaptive path on its own.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    scale = math.sqrt(2.0 * lam)
    log_c = math.log(specfun.c_lambda(lam)) if normalized else 0.0
    spec = specfun.GegenbauerSpec(lam, d)
    roots = specfun.gegenbauer_roots(spec).roots

    def log_abs(t: np.ndarray) -> np.ndarray:
        return specfun.gegenbauer_log_abs_scaled(spec, scale * t)[1]

    out = []
    for p, res in zip(exponents, integrate_root_intervals(log_abs, roots, exponents, lam - 0.5, tol)):
        if not res.converged:
            res = _zonal_power_adaptive(spec, p, roots, res.log_value, tol)
        rel = res.relative_error + 4.0 * p * (d + 1) * _EPS
        out.append(
            IntegralResult.from_log(res.log_value + log_c, rel, res.subintervals_used, res.converged, res.method)
        )
    return out


def _zonal_power_adaptive(
    spec: specfun.GegenbauerSpec, p: float, roots, log_ref: float, tol: float
) -> IntegralResult:
    """The same integral, without c_lam, by adaptive panels in s = sqrt(2 lam) t.

    The integrand is taken relative to exp(log_ref); log_ref, the rule's
    estimate (0 where that is not finite), is added back to the log of the
    result.
    """
    lam = spec.lam
    scale = math.sqrt(2.0 * lam)
    if not math.isfinite(log_ref):
        log_ref = 0.0
    log_const = -0.5 * math.log(2.0 * lam) - log_ref

    def integrand(s: np.ndarray) -> np.ndarray:
        log_g = specfun.gegenbauer_log_abs_scaled(spec, s)[1]
        with np.errstate(over="ignore"):
            return np.exp(p * log_g + _log_weight(lam, s / scale, log_const))

    cuts = [r * scale for r in roots]
    res = integrate_piecewise(integrand, cuts, (-scale, scale), tol, end_exponent=lam - 0.5, kink_exponent=p)
    if not res.value > 0:
        return res
    return IntegralResult.from_log(
        log_ref + math.log(res.value), res.relative_error, res.subintervals_used, res.converged, ADAPTIVE
    )


def _log_weight(lam: float, t: np.ndarray, log_const: float) -> np.ndarray:
    """log(exp(log_const) (1 - t^2)^(lam - 1/2)), the Gegenbauer weight in log form.

    With log_const = log c_lam it is the log density of t = xi . e1 on S^n; at
    lam = 1/2 it is the constant, even at t = +-1.
    """
    if lam == 0.5:
        return np.full_like(t, log_const)
    with np.errstate(divide="ignore"):
        return (lam - 0.5) * np.log1p(-t * t) + log_const


def _norm_from_integral(res: IntegralResult, p: float, log_prefactor: float, method: str) -> NormValue:
    if not (res.value > 0 and math.isfinite(res.log_value)):
        raise ArithmeticError(f"norm integral is {res.value}, not a finite positive number")
    log_norm = log_prefactor + res.log_value / p
    rel = res.relative_error / p + _ROUNDING
    try:
        value = math.exp(log_norm)
    except OverflowError:
        value = math.inf
    return NormValue(value, p, rel, method, log_norm, res.converged)


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
    weight (lam = 0) and is routed to a direct trigonometric formula; the
    paper fixes no degree normalization there, so the caller must opt in with
    ``circle_convention="cosine"`` (profile cos(d theta)).
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if params.n == 1:
        return _circle_lp_norm(d, p, tol, circle_convention)
    if d == 0:
        return NormValue(1.0, p, 0.0, CLOSED_FORM, 0.0)
    return _zonal_norms(params.lam, d, (p,), tol)[0]


def _zonal_norms(lam: float, d: int, exponents, tol: float) -> list[NormValue]:
    """||Y_d||_p on S^n (lam = (n - 1) / 2, d >= 1) for each p, from one root-split pass."""
    prefactor = 0.5 * d * math.log(2.0 * lam) - specfun.log_gamma(d + 1.0)
    integrals = _zonal_power_integrals(lam, d, exponents, tol)
    return [_norm_from_integral(res, p, prefactor, QUADRATURE) for p, res in zip(exponents, integrals)]


def _circle_lp_norm(d: int, p: float, tol: float, convention: str | None) -> NormValue:
    if convention != "cosine":
        raise ValueError(
            "norms on S^1 need an explicit convention: pass circle_convention='cosine' "
            "for the degree-d zonal profile cos(d theta)"
        )
    if d == 0:
        return NormValue(1.0, p, 0.0, CLOSED_FORM, 0.0)

    # mean of |cos|^p over a full period; independent of d >= 1
    def integrand(v: np.ndarray) -> np.ndarray:
        return np.abs(np.cos(v)) ** p / math.pi

    res = integrate_piecewise(integrand, [0.5 * math.pi], (0.0, math.pi), tol, kink_exponent=p)
    return _norm_from_integral(res, p, 0.0, CIRCLE_FORMULA)


def sphere_l2_norm_closed(params: SphereParams, d: int) -> NormValue:
    """Closed-form ||Y_d||_2 from ||Y_d||_2^2 = (n-1) / (d (2d + n - 1) B(n-1, d)).

    Note the returned value is the norm itself; square it to compare with the
    familiar identity.  d = 0 is rejected (the formula has d in a denominator;
    the degree-0 norm is 1 by convention).

    For integer n, 1 / (d B(n-1, d)) = prod_{j=1}^{n-2} (1 + d/j), so the log
    norm is a sum of log1p terms, each off by at most eps (|term| + 1/2); a
    difference of lgamma values instead loses 5e-14 at (n, d) = (2, 400) and
    1e-10 at n = 1e5.  ``error_estimate`` is eps times the summed |terms| plus
    their count, at least half the worst-case rounding of the log.
    """
    n = params.n
    if n < 2:
        raise ValueError(f"closed form needs n >= 2, got {n}")
    if d < 1:
        raise ValueError("closed form needs d >= 1 (degree-0 norm is 1 by convention)")
    terms = [math.log(n - 1.0), -math.log(2.0 * d + n - 1.0), *(math.log1p(d / j) for j in range(1, n - 1))]
    log_norm = 0.5 * math.fsum(terms)
    rel = _EPS * (math.fsum(map(abs, terms)) + len(terms))
    return NormValue(math.exp(log_norm), 2.0, rel, CLOSED_FORM, log_norm)


def gaussian_lp_norm(d: int, p: float, tol: float = 1e-12) -> NormValue:
    """||h_d||_{L^p(R, dgamma)} with Hermite-root breakpoints.

    The integration domain is truncated by the polynomial-growth tail bound
    with growth degree p*d, and the integrand is assembled in log space from
    the rescaled Hermite recurrence, so large degrees do not overflow.  The
    adaptive panels next to a root carry its exponent p, and the error adds
    the tail bound and 4 p (d + 1) eps for the recurrence's rounding.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    if d == 0:
        return NormValue(1.0, p, 0.0, CLOSED_FORM, 0.0)
    growth = math.ceil(p * d)
    radius = gaussian_truncation_radius(growth, tol)
    spec = specfun.HermiteSpec(d)

    def integrand(y: np.ndarray) -> np.ndarray:
        _, log_h = specfun.hermite_log_abs(spec, y)
        with np.errstate(over="ignore"):
            return np.exp(p * log_h - 0.5 * y * y - _LOG_SQRT_2PI)

    cuts = [r for r in specfun.hermite_roots(spec).roots if -radius < r < radius]
    res = integrate_piecewise(integrand, cuts, (-radius, radius), tol, kink_exponent=p)
    # the tail bound, plus the floor of 4 p (d + 1) eps for the rounding of
    # the d-step recurrence that the sphere side carries too
    tail = math.exp(growth * math.log1p(radius) - 0.5 * radius * radius)
    err = res.error_estimate + tail + 4.0 * p * (d + 1) * _EPS * abs(res.value)
    res = IntegralResult(res.value, err, res.subintervals_used, res.converged)
    return _norm_from_integral(res, p, 0.0, QUADRATURE)


def _ratio(nq: NormValue, np_: NormValue) -> RatioValue:
    log_ratio = nq.log_value - np_.log_value
    return RatioValue(
        math.exp(log_ratio),
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
    return _ratio(*_zonal_norms(params.lam, d, (q, p), tol))


def norm_ratio_gaussian(d: int, p: float, q: float, tol: float = 1e-12) -> RatioValue:
    """||h_d||_q / ||h_d||_p under the standard Gaussian measure."""
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    if d == 0 or p == q:
        return RatioValue(1.0, 0.0, 0.0)
    return _ratio(gaussian_lp_norm(d, q, tol), gaussian_lp_norm(d, p, tol))


def zonal_lp_norm(params: SphereParams, coeffs, p: float, tol: float = 1e-12) -> NormValue:
    """||sum_k a_k Y_k||_p on S^n (n >= 2) by quadrature of the zonal profile."""
    if params.n < 2:
        raise ValueError(f"zonal quadrature needs n >= 2, got {params.n}")
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    lam = params.lam
    log_c = math.log(specfun.c_lambda(lam))
    coeffs = np.asarray(coeffs, dtype=float)

    def integrand(t: np.ndarray) -> np.ndarray:
        u = np.asarray(specfun.gegenbauer_series(lam, coeffs, t), dtype=float)
        return np.abs(u) ** p * np.exp(_log_weight(lam, t, log_c))

    res = integrate_piecewise(integrand, [], (-1.0, 1.0), tol, end_exponent=lam - 0.5)
    return _norm_from_integral(res, p, 0.0, QUADRATURE)
