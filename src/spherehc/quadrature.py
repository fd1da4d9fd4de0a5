"""Quadrature for piecewise-smooth integrands: Gauss-Jacobi rules on root
intervals, adaptive Gauss-Legendre panels, and the truncation radius of
Gaussian-measure integrals.

Root-interval rule (``integrate_root_intervals``).  An integrand
|P(t)|^p (1 - t^2)^e on [-1, 1], with P a polynomial whose simple roots
r_1 < ... < r_d are known, behaves like (t - a)^p (b - t)^p times an analytic
factor between consecutive roots a, b, and like (1 + t)^e (r_1 - t)^p and
(t - r_d)^p (1 - t)^e on the two end intervals.  Each interval therefore gets
one m-node Gauss-Jacobi rule whose weight carries those exponents exactly
(``specfun.jacobi_rule_log``: Golub-Welsch nodes, Math. Comp. 23 (1969), and
log weights from the same recurrence pass), and the rule converges
spectrally.  Per rule size and exponent only three rules occur (left end,
interior, right end); they are cached with the rule-only part of their log
weights and broadcast over the intervals.  Several exponents p share one
pass: the caller supplies log|P|,
which is evaluated once on the nodes of every exponent and both rule sizes,
and each exponent's nodes are summed as a logsumexp of p log|P| plus the log
weight, so |P|^p never has to fit in a float.  The error estimate is the
relative gap between the m-node and the 2m-node sums (m = 16) plus the
rounding of the logarithms summed; the 2m-node sum is returned.  The gap of
two log sums of size L is a whole number of ulps of L, so a gap within
``tol`` plus that rounding counts as converged.  A larger gap, or a
non-finite sum, is reported as ``converged=False`` for that exponent, and the
caller falls back to the adaptive path.

Adaptive path (``integrate_piecewise``).  Kinks at known points are handled
by splitting exactly there; panels are bisected worst-error-first until the
summed error estimate meets the tolerance.  Each panel is a 16/32-node Gauss
pair whose weight carries the singular exponents the caller states: a panel
touching an end of the interval has the Jacobi exponent ``end_exponent`` on
that side, a panel touching a breakpoint has ``kink_exponent`` on that side,
and a bisected panel passes each side's exponent to the child that still
touches that side; any other panel is plain Gauss-Legendre.  The integrand
is not changed: the rule's weights are divided by its own weight function,
w_i / ((1 - x_i)^alpha (1 + x_i)^beta), which is formed in log space from the
same cached Gauss-Jacobi rules as the root-interval path, so it is finite
even where the weights alone pass the float range.  The integrand is called
once per panel, on the 48 nodes of both rule sizes.  It serves every
integrand that is not a root-split |P|^p: entropy functionals, general zonal
polynomials, subordination, the circle, the Gaussian side and the
root-interval fallback.  Non-convergence, including a non-finite panel,
is reported through ``converged=False``, never as a silently wrong value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import RootList
from .verdict import Verdict

__all__ = [
    "QuadratureRule",
    "IntegralResult",
    "gauss_legendre",
    "gauss_jacobi",
    "integrate_root_intervals",
    "integrate_piecewise",
    "gaussian_truncation_radius",
    "subordination_check",
    "MAX_PANELS",
    "ADAPTIVE",
    "GAUSS_JACOBI",
]

ADAPTIVE = "adaptive"
GAUSS_JACOBI = "gauss-jacobi"

MAX_PANELS = 2**14
_COARSE = 16
_FINE = 32
_JACOBI_NODES = 16
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss rule on ``interval``: exact for polynomials up to degree 2*count - 1.

    ``log_weights`` stay finite where ``weights`` overflow to inf.
    """

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]
    log_weights: np.ndarray

    @property
    def count(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=64)
def gauss_legendre(count: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]: the Gauss-Jacobi rule with alpha = beta = 0."""
    return gauss_jacobi(count, 0.0, 0.0)


@lru_cache(maxsize=256)
def gauss_jacobi(count: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss-Jacobi rule on [-1, 1] for the weight (1 - x)^alpha (1 + x)^beta.

    Nodes and log weights come from ``specfun.jacobi_rule_log``; with
    alpha < beta the rule is the (beta, alpha) rule mirrored, so the two
    share one build.  The cache holds at most 256 rules.  The weights sum to
    mu0 = 2^(alpha + beta + 1) B(alpha + 1, beta + 1), which passes the float
    range when alpha + beta is beyond about 1000 and one exponent is small;
    ``weights`` are then inf, and ``log_weights`` stay finite.
    """
    if alpha < beta:
        rule = gauss_jacobi(count, beta, alpha)
        nodes, log_weights = -rule.nodes[::-1], rule.log_weights[::-1]
    else:
        nodes, log_weights = specfun.jacobi_rule_log(count, float(alpha), float(beta))
    with np.errstate(over="ignore"):
        weights = np.exp(log_weights)
    for array in (nodes, weights, log_weights):
        array.flags.writeable = False
    return QuadratureRule(nodes, weights, (-1.0, 1.0), log_weights)


def _jacobi_log_rule(count: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and rule-only log weights log w - alpha log(1 - x) - beta log(1 + x).

    This divides the rule's own weight function out of its weights, so the
    rule applies to an integrand that still carries those powers.  The powers
    are taken with log1p: log(1 - x) of a rounded 1 - x is off by eps/2, which
    alpha multiplies; at alpha = beta = 2499 that put a zonal L^2 norm about
    4e-14 off, outside its band.
    """
    rule = gauss_jacobi(count, alpha, beta)
    x = rule.nodes
    return x, rule.log_weights - alpha * np.log1p(-x) - beta * np.log1p(x)


@dataclass(frozen=True)
class IntegralResult:
    """An integral, its error estimate and how it was obtained.

    ``value`` may overflow to inf; ``log_value`` (log |value|) and
    ``relative_error`` (the error estimate over |value|) stay finite where the
    integral is finite, so log-scale callers should read those.
    ``subintervals_used`` counts adaptive panels or root intervals, by
    ``method``.
    """

    value: float
    error_estimate: float
    subintervals_used: int
    converged: bool = True
    method: str = ADAPTIVE
    log_value: float | None = None
    relative_error: float | None = None

    def __post_init__(self) -> None:
        magnitude = abs(self.value)
        if self.log_value is None:
            with np.errstate(divide="ignore"):
                object.__setattr__(self, "log_value", float(np.log(magnitude)))
        if self.relative_error is None:
            rel = self.error_estimate / magnitude if magnitude != 0 else math.inf
            object.__setattr__(self, "relative_error", rel)

    @classmethod
    def from_log(
        cls, log_value: float, relative_error: float, subintervals_used: int, converged: bool, method: str
    ) -> "IntegralResult":
        """Build a positive integral from its logarithm; ``value`` is inf on overflow."""
        value = _exp(log_value)
        return cls(value, relative_error * value, subintervals_used, converged, method, log_value, relative_error)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_sum_exp(terms: np.ndarray) -> float:
    # shifted by the largest term, so no exponential overflows
    top = float(np.max(terms))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(terms - top))))


@lru_cache(maxsize=256)
def _jacobi_rows(count: int, p: float, end_exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and rule-only log parts of the left-end, interior and right-end rules.

    Row 0 has the Jacobi exponents (alpha, beta) = (p, end_exponent), row 1
    (p, p) and row 2 (end_exponent, p); alpha belongs to the right edge
    (x = 1) and beta to the left (x = -1).
    """
    rows = [_jacobi_log_rule(count, *ab) for ab in ((p, end_exponent), (p, p), (end_exponent, p))]
    x, rest = (np.array(column) for column in zip(*rows))
    x.flags.writeable = False
    rest.flags.writeable = False
    return x, rest


def integrate_root_intervals(
    log_abs, roots, exponents, end_exponent: float, tol: float
) -> tuple[IntegralResult, ...]:
    """integral over [-1, 1] of |P(t)|^p (1 - t^2)^end_exponent dt, for each p in ``exponents``.

    ``exp(log_abs)`` must be |P| (or a constant multiple of it) for a
    polynomial P whose roots in (-1, 1) are exactly ``roots``, at least one
    and all simple, so that |P|^p vanishes like |t - r|^p at each root r.
    ``log_abs`` maps an ndarray of abscissae to log|P|; it is called once, on
    the nodes of every exponent and both rule sizes.  One result is returned
    per exponent, in the order given.

    Interval [a, b] between consecutive edges of (-1, roots..., 1) is mapped to
    x in [-1, 1] and integrated with the Gauss-Jacobi rule whose exponents are
    p at a root edge and ``end_exponent`` at t = +-1: three cached rules per
    rule size and exponent (left end, interior, right end), broadcast over the
    intervals.  The value is the 2m-node logsumexp (m = 16).
    ``relative_error`` is its gap to the m-node sum plus the rounding of the
    logarithms summed; ``converged`` is False when the sum is not finite or
    the gap exceeds ``tol`` plus that rounding, since the gap of two sums of
    size L cannot resolve less than an ulp of L.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    edges = np.array([-1.0, *roots, 1.0], dtype=float)
    if len(edges) < 3 or np.any(np.diff(edges) <= 0):
        raise ValueError("roots must be non-empty and strictly increasing inside (-1, 1)")
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    log_half = np.log(half)
    row = np.ones(len(lo), dtype=int)
    row[0], row[-1] = 0, 2

    nodes, rests = [], []
    for p in exponents:
        for count in (_JACOBI_NODES, 2 * _JACOBI_NODES):
            x, rest = _jacobi_rows(count, float(p), float(end_exponent))
            x, rest = x[row], rest[row] + log_half
            u = 1.0 + x
            if end_exponent != 0.0:
                # (t - a) = half (1 + x) and (b - t) = half (1 - x); the same
                # products build (1 + t) and (1 - t), so on an end interval
                # the end power cancels the rule's own to within
                # end_exponent * eps per node, inside the rounding term below
                one_plus_t = (1.0 + lo) + half * u
                one_minus_t = (1.0 - hi) + half * (1.0 - x)
                rest += end_exponent * (np.log(one_plus_t) + np.log(one_minus_t))
            nodes.append((lo + half * u).ravel())
            rests.append(rest.ravel())

    log_f = np.asarray(log_abs(np.concatenate(nodes)), dtype=float)
    pieces = np.split(log_f, np.cumsum([t.size for t in nodes])[:-1])
    results = []
    for k, p in enumerate(exponents):
        coarse = _log_sum_exp(p * pieces[2 * k] + rests[2 * k])
        fine_f, fine_rest = p * pieces[2 * k + 1], rests[2 * k + 1]
        fine = _log_sum_exp(fine_f + fine_rest)
        gap = abs(math.expm1(coarse - fine)) if math.isfinite(fine) else math.inf
        # each summand's logarithm is rounded at the size of its parts, which
        # is a relative error of the sum the m/2m gap does not see
        size = np.abs(fine_f) + np.abs(fine_rest)
        rounding = 4.0 * _EPS * float(np.max(size, where=np.isfinite(size), initial=0.0))
        converged = math.isfinite(gap) and gap <= tol + rounding
        results.append(IntegralResult.from_log(fine, gap + rounding, len(lo), converged, GAUSS_JACOBI))
    return tuple(results)


@lru_cache(maxsize=256)
def _panel_rule(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of both rule sizes, then the 16- and the 32-node weights, for a
    panel whose integrand behaves like (1 - x)^alpha at x = 1 and (1 + x)^beta
    at x = -1.

    The weights are Gauss-Jacobi weights with the weight function divided
    out; with both exponents 0 they are the Gauss-Legendre weights, bitwise.
    """
    rules = [_jacobi_log_rule(count, alpha, beta) for count in (_COARSE, _FINE)]
    return np.concatenate([x for x, _ in rules]), *(np.exp(rest) for _, rest in rules)


def _panel(f, a: float, b: float, left: float, right: float) -> tuple[float, float, float]:
    """(fine value, error estimate, |fine value|) for one panel with exponents
    ``left`` at a and ``right`` at b, from one call of ``f``."""
    nodes, coarse_w, fine_w = _panel_rule(right, left)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = np.asarray(f(mid + half * nodes), dtype=float)
    coarse = half * float(coarse_w @ values[:_COARSE])
    fine = half * float(fine_w @ values[_COARSE:])
    return fine, abs(fine - coarse), abs(fine)


def integrate_piecewise(
    f,
    breakpoints,
    interval,
    tol: float,
    max_panels: int = MAX_PANELS,
    *,
    end_exponent: float = 0.0,
    kink_exponent: float = 0.0,
) -> IntegralResult:
    """Integrate ``f`` over ``interval``, splitting exactly at ``breakpoints``.

    Parameters
    ----------
    f : callable mapping an ndarray of abscissae to an ndarray of values;
        it is called once per panel, on the 48 nodes of both rule sizes.
    breakpoints : RootList or sequence of floats; points where the integrand
        has kinks.  Points outside the open interval are ignored.
    interval : (a, b) with a < b.
    tol : target relative tolerance.  Panels are bisected worst-error-first
        until the summed error estimate drops below tol times the integral's
        magnitude (L1 of panel contributions when there is cancellation).
    end_exponent : e where ``f`` behaves like |t - a|^e and |b - t|^e times an
        analytic factor at the ends; every panel touching an end uses a
        Gauss-Jacobi rule with that exponent on that side.
    kink_exponent : the same for |t - c|^k at each breakpoint c, on both sides.

    Both exponents state facts about ``f`` and must exceed -1.  A panel that
    touches neither an end with a nonzero ``end_exponent`` nor a breakpoint
    with a nonzero ``kink_exponent`` uses the Gauss-Legendre pair.

    Returns ``converged=False`` when the panel budget ``max_panels`` runs out,
    and at once, with a NaN value, when a panel's value is not finite:
    bisection cannot make an overflowed integrand finite.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"empty interval {interval}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    end_exponent, kink_exponent = float(end_exponent), float(kink_exponent)
    if not (end_exponent > -1.0 and kink_exponent > -1.0):
        raise ValueError(f"exponents must exceed -1, got ({end_exponent}, {kink_exponent})")
    if isinstance(breakpoints, RootList):
        breakpoints = breakpoints.roots
    points = () if breakpoints is None else breakpoints
    cuts = sorted({float(p) for p in points if a < p < b})
    edges = [a, *cuts, b]
    sides = [end_exponent, *(kink_exponent for _ in cuts), end_exponent]

    # heap entries: (-err, id, lo, hi, value, exponent at lo, exponent at hi)
    heap: list[tuple[float, int, float, float, float, float, float]] = []
    counter = 0
    values: dict[int, tuple[float, float, float]] = {}

    def push(lo: float, hi: float, left: float, right: float) -> None:
        nonlocal counter
        val, err, mag = _panel(f, lo, hi, left, right)
        heapq.heappush(heap, (-err, counter, lo, hi, val, left, right))
        values[counter] = (val, err, mag)
        counter += 1

    for lo, hi, left, right in zip(edges, edges[1:], sides, sides[1:]):
        push(lo, hi, left, right)

    converged = True
    while True:
        err_total = math.fsum(v[1] for v in values.values())
        abs_total = math.fsum(v[2] for v in values.values())
        if not math.isfinite(err_total + abs_total):
            return IntegralResult(math.nan, math.inf, len(values), False)
        if err_total <= tol * max(abs_total, 1e-300):
            break
        if len(values) >= max_panels:
            converged = False
            break
        _, idx, lo, hi, _, left, right = heapq.heappop(heap)
        del values[idx]
        mid = 0.5 * (lo + hi)
        push(lo, mid, left, 0.0)
        push(mid, hi, 0.0, right)

    panels = sorted(heap, key=lambda e: e[2])
    value = math.fsum(p[4] for p in panels)
    error = math.fsum(-p[0] for p in panels)
    return IntegralResult(value, error, len(panels), converged)


def gaussian_truncation_radius(growth_degree: int, tol: float) -> float:
    """Smallest integer-stepped R >= 10 with (1 + R)^g * exp(-R^2/2) < tol * 1e-3."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    target = math.log(tol) + math.log(1e-3)
    radius = 10.0
    while growth_degree * math.log1p(radius) - 0.5 * radius * radius >= target:
        radius += 1.0
    return radius


def subordination_check(x: float, tol: float = 1e-10) -> Verdict:
    """Check e^{-x} = pi^{-1/2} * integral_0^inf e^{-y - x^2/(4y)} dy / sqrt(y).

    Substituting y = u^2 removes the endpoint singularity and leaves
    (2/sqrt(pi)) * integral_0^inf e^{-u^2 - x^2/(4 u^2)} du, which is compared
    against e^{-x} with identity semantics (holds when they agree within tol).
    """
    if x < 0:
        raise ValueError(f"subordination identity needs x >= 0, got {x}")
    upper = 9.0 + math.sqrt(0.5 * x)
    scale = 2.0 / math.sqrt(math.pi)

    def integrand(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        pos = u > 0
        up = u[pos]
        out[pos] = scale * np.exp(-up * up - (x * x) / (4.0 * up * up))
        return out

    cuts = [math.sqrt(0.5 * x)] if x > 0 else []
    res = integrate_piecewise(integrand, cuts, (0.0, upper), max(tol * 1e-3, 1e-14))
    tail = scale * math.exp(-upper * upper)
    err = res.error_estimate + tail if res.converged else math.inf
    return Verdict.identity(res.value, math.exp(-x), err, atol=tol)
