"""L^p norms of zonal spherical harmonics and of Hermite polynomials in Gauss space.

All norms carry a log-scale accessor so ratios of astronomically large values
(right-hand sides reach 9^sqrt(d(d+n-1)/n)) never leave log space.  Every
zonal |u|^p integral, of Y_d or of a series, takes one path
(``_zonal_integrals``): log|u| from the plain Gegenbauer recurrence, whose
rescale shift keeps it finite past the float range, split at u's roots.  A
sphere ratio ||Y_d||_q / ||Y_d||_p with both exponents even takes an exact
Gauss-Gegenbauer rule instead (``_rule_log_means``), up to ``_RULE_NODES``
positive nodes: |C_d|^q is then a polynomial, so it needs no roots, no
16/32 gap and no bisection.  Rule sizes are rounded up to a ladder of
multiples of ``_RULE_STEP`` (``_rule_size``), so the degrees of a sphere
share a few rules: d = 1..40 at q = 4 take 6.  The rules come from a
per-process cache keyed by the sphere and the sizes (``_exact_rules``), so
a call that repeats a sphere and sizes builds no rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .quadrature import ADAPTIVE, NormValue, _exp, _integrate_root_lists, integrate_root_intervals
from .specfun import _integer

__all__ = [
    "CLOSED_FORM",
    "GAUSS_GEGENBAUER",
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
GAUSS_GEGENBAUER = "gauss-gegenbauer"

# the most positive nodes of an exact rule (``_rule_log_means``): d <= 40 at
# q = 4, 27 at q = 6 and 20 at q = 8.  A k x k Jacobi matrix stays well
# below the size (about 64) from which eigvalsh runs OpenBLAS threads that
# oversubscribe a scan's worker processes.
_RULE_NODES = 41
# the rung of the ladder a rule's size is rounded up to (``_rule_size``)
_RULE_STEP = 8
# the rounding of a rule's mean beyond the summands' 4 eps log size, in
# units of e (d + 1) eps: against tests/oracles.sphere_power_integral_exact,
# on the ladder's rules at most 2.0 (n = 3, d = 31, e = 4, 32 nodes) over
# every even q <= 160 at each degree its rule serves, for e = 2 and e = q at
# n in 2..13, 50, 100, 1e3, 2e4, 1e5 and 1e7 and for every even e <= q at
# n in {2, 3, 4, 5, 7, 9, 13, 1000}; at q = 4 for e in {2, 4} up to
# n = 1e7
_RULE_FLOOR = 8.0
# the most points of one count1_checks run or batch: a root run's Newton
# points (d // 2 a degree) or a batch's first-round nodes, so that its
# arrays stay small
_BATCH_NODES = 4096

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SphereParams:
    """The n-sphere S^n in R^(n+1); zonal profiles live on [-1, 1] with lam = (n-1)/2.

    ``n`` must be an integer of at least 1 (a numpy integer too), stored as an int.
    """

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("sphere dimension n", self.n, 1))

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
    return _zonal_integrals(lam, [d], None, [_roots(lam, d)], (p,), tol)[0][0]


def _roots(lam: float, d: int) -> tuple[float, ...]:
    return specfun.gegenbauer_roots(specfun.GegenbauerSpec(lam, d))


def _zonal_integrals(lam: float, degrees, coeffs, root_lists, exponents, tol: float) -> list[list[NormValue]]:
    """integral over [-1, 1] of |u(t)|^p c_lam (1 - t^2)^(lam - 1/2) dt for each degree d and exponent p.

    u is C_d^(lam) for each d in ``degrees`` (descending) when ``coeffs`` is
    None, else the series sum_k coeffs[k] C_k^(lam) of the one degree
    d = len(coeffs) - 1.  Its real roots in (-1, 1), one list in
    ``root_lists`` per degree (from ``specfun._gegenbauer_roots``, or
    ``specfun._series_roots`` for a series), split [-1, 1]
    for ``quadrature.integrate_root_intervals`` with the end exponent
    lam - 1/2, and log|u| comes from one pass of the plain recurrence per
    round, so ``log_value`` stays finite where u or the integral passes the
    float range.  |C_d|^p is even and its roots exactly symmetric, so for
    Y_d only [0, 1] is integrated (``even=True``), with exponent p at t = 0
    when d is odd and 0 there when d is even; a series has no parity and
    takes the whole of [-1, 1].  Where 32 nodes do not resolve an interval
    (at lam ~ 500, say, where (1 - t^2)^(lam - 1/2) is steep) the
    integrator bisects in log space and ``method`` is ADAPTIVE.
    ``error_estimate`` is the integrator's, plus a floor of 4 p (d + 1) eps
    for the rounding of the d-step recurrence, which the 16/32 gap does not
    show.

    Several degrees share one integrator whose rounds evaluate every degree
    in one blocked recurrence pass (``specfun._recurrence``), so a degree's
    results are bitwise its own call's wherever that pass rescales at the
    same steps.
    """
    ab = specfun._gegenbauer_ab(lam, degrees[0])
    log_c = math.log(specfun.c_lambda(lam))
    for d in degrees:
        specfun.GegenbauerSpec(lam, d)
    if coeffs is None:
        def log_abs(t: np.ndarray, counts) -> np.ndarray:
            return specfun._log_abs(ab, t, blocks=list(zip(degrees, counts)))[1]

    else:
        def log_abs(t: np.ndarray, counts) -> np.ndarray:
            return specfun._log_abs(ab, t, coeffs)[1]

    out = []
    batch = _integrate_root_lists(log_abs, root_lists, exponents, lam - 0.5, tol, (-1.0, 1.0), None, coeffs is None)
    for d, integrals in zip(degrees, batch):
        row = []
        for p, res in zip(exponents, integrals):
            rel = res.error_estimate + 4.0 * p * (d + 1) * _EPS
            row.append(NormValue(res.log_value + log_c, rel, res.method, res.converged, res.panels))
        out.append(row)
    return out


def _norm_from_integral(res: NormValue, p: float) -> NormValue:
    if not math.isfinite(res.log_value):
        raise _non_finite(res.log_value)
    return NormValue(*_log_norm(res.log_value, res.error_estimate, p), res.method, res.converged, res.panels)


def _non_finite(log_integral: float) -> ArithmeticError:
    return ArithmeticError(f"norm integral has log {log_integral}, not a finite number")


def _log_norm(log_integral, rel, p: float):
    """log ||f||_p and its band from the log of the integral of |f|^p (finite) and its band.

    Floats or arrays alike, elementwise, so a norm reads the same float on
    either.
    """
    log_norm = log_integral / p
    # the integral's error, and the rounding of the division by p
    return log_norm, rel / p + _EPS * abs(log_norm)


def sphere_lp_norm(params: SphereParams, d: int, p: float, tol: float = 1e-12) -> NormValue:
    """L^p norm of the zonal harmonic Y_d(xi) = C_d^(lam)(xi . e1) on S^n.

    Computed as (integral of |C_d|^p against the Gegenbauer weight)^(1/p) with
    the integrand split at the polynomial's roots; the integrand is even, so
    it is integrated over [0, 1] and doubled.  n = 1 degenerates the
    weight (lam = 0), and the degree-d profile there is cos(d theta), whose
    norm has the closed form (B(1/2, (p + 1)/2) / pi)^(1/p) for every d >= 1.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    d = _integer("degree", d, 0)
    if d == 0:
        return _ONE
    if params.n == 1:
        return _circle_lp_norm(p)
    return _norm_from_integral(_zonal_integrals(params.lam, [d], None, [_roots(params.lam, d)], (p,), tol)[0][0], p)


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
    the degree-0 norm is 1 by convention), and so is a non-integer d.

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
    d = _integer("degree", d, 1)
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
    d = _integer("degree", d, 0)
    if d == 0:
        return _ONE
    return _norm_from_integral(_gaussian_integrals(d, (p,), tol)[0], p)


def _gaussian_integrals(d: int, exponents, tol: float) -> list[NormValue]:
    """E|h_d|^p (d >= 1) for each p, from one roots call and one pass per round.

    |h_d|^p and the density are even, so only [0, R) is integrated and
    doubled (``even=True``), with exponent p at y = 0 when d is odd.

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
        log_abs, roots, exponents, 0.0, tol, interval=(-radius, radius), log_weight=log_density, even=True
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
    log_ratio, band, lyapunov = _log_ratio(nq.log_value, nq.error_estimate, np_.log_value, np_.error_estimate)
    method = nq.method if nq.method == np_.method else ADAPTIVE
    converged = nq.converged and np_.converged and lyapunov
    return NormValue(log_ratio, band, method, converged, nq.panels + np_.panels)


def _log_ratio(log_q, rel_q, log_p, rel_p):
    """log(||f||_q / ||f||_p) (q >= p), its band, and whether it is at least -band; floats or arrays alike.

    Under a probability measure q >= p gives ||f||_q >= ||f||_p (Lyapunov),
    so a ratio below 1 past its band comes from a wrong norm.
    """
    log_ratio = log_q - log_p
    band = rel_q + rel_p
    return log_ratio, band, log_ratio >= -band


def norm_ratio_sphere(params: SphereParams, d: int, p: float, q: float, tol: float = 1e-12) -> NormValue:
    """||Y_d||_q / ||Y_d||_p on S^n, computed as exp of the log-norm difference.

    For n >= 2 both norms come from one exact Gauss-Gegenbauer rule when p
    and q are even, else from one root split and one recurrence pass; see
    ``_sphere_ratios``.  ``d`` is checked first, as in ``sphere_lp_norm``,
    on every n and pair.
    """
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    d = _integer("degree", d, 0)
    if d == 0 or p == q:
        return _ONE
    if params.n == 1:
        return _ratio(_circle_lp_norm(q), _circle_lp_norm(p))
    return _sphere_ratios(params.lam, [d], p, q, tol)[d]


def _rule_size(p: float, q: float, d: int) -> int | None:
    """K, the positive nodes of the exact rule for ||Y_d||_q / ||Y_d||_p (p < q), or None.

    When p and q are even, |C_d|^q is a polynomial of degree q d, and the
    2K-point Gauss-Gegenbauer rule is exact to degree 4K - 1 >= q d for
    every K >= k = ceil((q d / 2 + 1) / 2).  K is k rounded up to a multiple
    of ``_RULE_STEP``, at most ``_RULE_NODES``, so the degrees of a sphere
    share a few rules (d = 1..40 at q = 4 share 8, 16, 24, 32, 40 and 41).
    K depends only on (d, p, q), so a degree takes the same rule in any
    batch.  None when an exponent is not even or k would pass
    ``_RULE_NODES``.
    """
    if p % 2 or q % 2:
        return None
    k = (int(q) // 2 * d + 2) // 2
    return min(-(-k // _RULE_STEP) * _RULE_STEP, _RULE_NODES) if k <= _RULE_NODES else None


def _sphere_ratios(lam: float, degrees, p: float, q: float, tol: float) -> dict[int, NormValue]:
    """||Y_d||_q / ||Y_d||_p (p < q) for each distinct d in ``degrees`` (each >= 1), by degree.

    Where ``_rule_size`` gives a rule, the degrees share one ``_rule_ratios``
    pass.  The others go highest first in root runs (``_root_runs``) of at
    most ``_BATCH_NODES`` Newton points (d // 2 a degree, so d <= 128 is one
    run), each polished in one ``specfun._gegenbauer_roots`` pass whose roots
    are bitwise each degree's own (a rescale divides by a power of two, and a
    Newton step is a ratio of values scaled alike).  A run is integrated in
    batches of at most ``_BATCH_NODES`` first-round nodes by
    ``_zonal_integrals``, each round's open panels in one recurrence pass
    where a degree's points drop out at its degree.  Only there may log|Y_d|
    move, by a few ulps, if that pass rescales at other steps than the
    degree's own; it does not for n <= 5e4, as a batch of several degrees
    has degrees of at most 81, and there no rescale fires below d = 87
    (d = 598 on S^2 to S^13).
    """
    sizes = {d: _rule_size(p, q, d) for d in sorted(set(degrees), reverse=True)}
    exact = [d for d, k in sizes.items() if k is not None]
    ratios = _rule_ratios(lam, exact, [sizes[d] for d in exact], p, q) if exact else {}
    for run in _root_runs([d for d, k in sizes.items() if k is None]):
        roots = dict(zip(run, specfun._gegenbauer_roots(lam, run)))
        for batch in _degree_batches(run):
            for d, pair in zip(batch, _zonal_integrals(lam, batch, None, [roots[d] for d in batch], (q, p), tol)):
                ratios[d] = _ratio(*map(_norm_from_integral, pair, (q, p)))
    return ratios


def _rule_ratios(lam: float, degrees, sizes, p: float, q: float) -> dict[int, NormValue]:
    """``_ratio`` of the ``_norm_from_integral``s of each degree's ``_rule_log_means``, by degree, on whole arrays.

    The same elementwise float operations (``_log_norm``, ``_log_ratio``)
    and the same ArithmeticError for a mean that is not finite, so every
    ratio is bitwise the one those scalar steps give on each mean as a
    NormValue of one panel; only the last step makes NormValues.  Both norms
    are GAUSS_GEGENBAUER and converged, one panel each.
    """
    (log_q, rel_q), (log_p, rel_p) = _rule_log_means(lam, degrees, sizes, (q, p))
    for log_mean in (log_q, log_p):
        if not np.isfinite(log_mean).all():
            raise _non_finite(log_mean[~np.isfinite(log_mean)][0])
    log_ratio, band, lyapunov = _log_ratio(*_log_norm(log_q, rel_q, q), *_log_norm(log_p, rel_p, p))
    rows = zip(degrees, log_ratio.tolist(), band.tolist(), lyapunov.tolist())
    return {d: NormValue(r, b, GAUSS_GEGENBAUER, ok, 2) for d, r, b, ok in rows}


def _first_round_nodes(d: int) -> int:
    """The first-round nodes of a root-split ratio of degree d: 2 exponents x 48 nodes x (d // 2 + 1) panels."""
    return 96 * (d // 2 + 1)


def _degree_batches(degrees, size=_first_round_nodes) -> list[list[int]]:
    """The distinct degrees, highest first, cut into runs whose ``size(d)`` sum to at most ``_BATCH_NODES``.

    A degree whose size alone is more is a run of its own.  The default size
    is a degree's first-round nodes (``_first_round_nodes``).
    """
    batches, total = [], 0
    for d in sorted(set(degrees), reverse=True):
        if not batches or total + size(d) > _BATCH_NODES:
            batches.append([])
            total = 0
        batches[-1].append(d)
        total += size(d)
    return batches


def _root_runs(degrees) -> list[list[int]]:
    """``_degree_batches`` of Newton points, d // 2 a degree: the runs whose roots one ``specfun._gegenbauer_roots`` pass polishes."""
    return _degree_batches(degrees, lambda d: d // 2)


def _rule_log_means(lam: float, degrees, sizes, exponents) -> list[tuple[np.ndarray, np.ndarray]]:
    """The log mean of |C_d|^e against c_lam (1 - t^2)^(lam - 1/2) dt, and its band, for each e in
    ``exponents`` (even): arrays over the d in ``degrees`` (descending), each d by its exact rule of
    sizes[i] positive nodes.

    The distinct sizes' rules come from one ``specfun._jacobi_rules``
    pass, cached per process by the sphere and those sizes
    (``_exact_rules``), each degree's nodes and log weights are its size's
    rule, and log|C_d| at those nodes comes from one blocked recurrence
    pass, so a degree's means are bitwise its own call's wherever those
    passes rescale at the same steps.  |C_d|^e is even, so the k positive
    nodes, with weights summing to 1, give its mean exactly up to rounding:
    the log-sum of e log|C_d| + log w.  The relative band of each mean is
    4 eps times the summands' log size, |e log|C_d|| + |log w| weighted by
    each summand's share, plus ``_RULE_FLOOR`` e (d + 1) eps for the
    recurrences of the rule and of C_d.
    """
    rules = sorted(set(sizes), reverse=True)
    by_size = dict(zip(rules, _exact_rules(lam, tuple(rules))))
    nodes, log_w = (np.concatenate([by_size[k][i] for k in sizes]) for i in (0, 1))
    log_abs = specfun._log_abs(specfun._gegenbauer_ab(lam, degrees[0]), nodes, blocks=list(zip(degrees, sizes)))[1]
    out = []
    for e in exponents:
        terms = e * log_abs
        log_mean, size = specfun._block_log_sum_exp(terms + log_w, sizes, np.abs(terms) + np.abs(log_w))
        out.append((log_mean, 4.0 * _EPS * size + _RULE_FLOOR * e * (np.array(degrees) + 1.0) * _EPS))
    return out


@lru_cache(maxsize=256)
def _exact_rules(lam: float, rules: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The k positive nodes, ascending, and log weights of the 2k-point Gauss-Gegenbauer rule
    for each k in ``rules`` (descending), one pair per size in that order, built once per process.

    They are the positive halves of ``specfun._jacobi_rules([2k, ...],
    lam - 1/2, lam - 1/2)``, renormalised to sum to 1: each rule sums to
    mu0, so each half to mu0 / 2, one constant for every size.  A half
    integrates an even polynomial of degree at most 4k - 1 exactly against
    the probability measure c_lam (1 - t^2)^(lam - 1/2) dt.  The arrays are
    read-only.  The key is the sphere and the distinct sizes, so a cached
    rule is the very call an uncached one makes and its floats do not depend
    on which calls ran before.  The cache holds at most 256 keys; a key of
    the ladder has at most 161 nodes (41 + 40 + 32 + 24 + 16 + 8) of 16 B,
    a node and a log weight, so the cache stays below 660 kB.
    """
    full = specfun._jacobi_rules([2 * k for k in rules], lam - 0.5, lam - 0.5)
    log_half = specfun._log_jacobi_mass(lam - 0.5, lam - 0.5) - math.log(2.0)
    # the nodes are copied, so the cache does not keep each whole 2k-node rule alive
    out = tuple((nodes[k:].copy(), log_w[k:] - log_half) for (nodes, log_w), k in zip(full, rules))
    for nodes, log_w in out:
        nodes.flags.writeable = log_w.flags.writeable = False
    return out


def norm_ratio_gaussian(d: int, p: float, q: float, tol: float = 1e-12) -> NormValue:
    """||h_d||_q / ||h_d||_p under the standard Gaussian measure; ``d`` is checked first, on every pair."""
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got ({p}, {q})")
    d = _integer("degree", d, 0)
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
    roots = specfun._series_roots(params.lam, coeffs)
    return _norm_from_integral(_zonal_integrals(params.lam, [len(coeffs) - 1], coeffs, [roots], (p,), tol)[0][0], p)
