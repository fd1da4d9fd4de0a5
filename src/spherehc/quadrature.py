"""Quadrature for piecewise-smooth integrands: Gauss-Jacobi rules on root
intervals in log space and adaptive panels in linear space.

``integrate_root_intervals`` takes every integral of the form |P|^p times a
weight: the zonal |C_d|^p, the Gaussian side and the circle.  Between
consecutive edges of (a, roots of P..., b), |P|^p behaves like a known power
of the distance to each edge times an analytic factor, so each interval gets
a Gauss-Jacobi rule carrying those exponents (``specfun.jacobi_rule_log``:
Golub-Welsch nodes, Math. Comp. 23 (1969), and log weights from the same
recurrence pass).  The caller supplies log|P|, and the nodes are summed as a
logsumexp of p log|P| plus the log weight, so |P|^p never has to fit in a
float.  Where the 16/32-node gap misses the tolerance, the panels whose own
gap is too large are bisected, still in log space, in the manner of
QUADPACK's QAWS (Piessens et al., QUADPACK, Springer 1983).

``integrate_piecewise`` serves the integrands that are not |P|^p: the signed
entropy, general zonal polynomials and subordination.  It splits at the
given breakpoints and bisects the worst panel first; a panel touching an
end carries ``end_exponent`` through a Gauss-Jacobi pair whose weight
function is divided out of its weights in log space.

Non-convergence, including a non-finite sum, is reported through
``converged=False``, never as a silently wrong value.
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
    ``subintervals_used`` counts the panels of the last round: the root
    intervals when the first round of ``integrate_root_intervals`` converged.
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
def _rule_rows(count: int, pairs: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and rule-only log weights of the Gauss-Jacobi rule, one row per (alpha, beta) in ``pairs``.

    alpha belongs to the right edge (x = 1) of a panel and beta to the left.
    """
    rows = [_jacobi_log_rule(count, *ab) for ab in pairs]
    x, rest = (np.array(column) for column in zip(*rows))
    x.flags.writeable = False
    rest.flags.writeable = False
    return x, rest


def _log_terms(log_abs, jobs, end_exponent, interval, log_weight):
    """Per job, (p log|P|, log w) on the 16 and on the 32 nodes of its panels, from one ``log_abs`` call.

    A job is (p, lo, hi, pairs, row): panel i spans [lo[i], hi[i]] and takes the
    rule pairs[row[i]]; log w adds the end power and ``log_weight`` to its rule-only part.
    """
    nodes, rests = [], []
    for _, lo, hi, pairs, row in jobs:
        lo, hi = lo[:, None], hi[:, None]
        half = 0.5 * (hi - lo)
        log_half = np.log(half)
        for count in (_COARSE, _FINE):
            x, rest = _rule_rows(count, pairs)
            x, rest = x[row], rest[row] + log_half
            u = 1.0 + x
            if end_exponent != 0.0:
                # (t - a) = half (1 + x) and (b - t) = half (1 - x); the same
                # products build t - a and b - t from the ends, so on an end
                # panel the end power cancels the rule's own to within
                # end_exponent * eps per node, inside the log rounding term
                a, b = interval
                rest += end_exponent * (np.log((lo - a) + half * u) + np.log((b - hi) + half * (1.0 - x)))
            nodes.append((lo + half * u).ravel())
            rests.append(rest.ravel() if log_weight is None else rest.ravel() + log_weight(nodes[-1]))
    log_f = np.asarray(log_abs(np.concatenate(nodes)), dtype=float)
    pieces = np.split(log_f, np.cumsum([t.size for t in nodes])[:-1])
    return [
        ((p * pieces[2 * k], rests[2 * k]), (p * pieces[2 * k + 1], rests[2 * k + 1]))
        for k, (p, *_) in enumerate(jobs)
    ]


def _panel_sums(terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per panel: the log 16-node sum, the log 32-node sum and the largest log size on the 32 nodes."""
    (coarse_f, coarse_rest), (fine_f, fine_rest) = terms
    coarse = np.array([_log_sum_exp(panel) for panel in (coarse_f + coarse_rest).reshape(-1, _COARSE)])
    fine = np.array([_log_sum_exp(panel) for panel in (fine_f + fine_rest).reshape(-1, _FINE)])
    size = (np.abs(fine_f) + np.abs(fine_rest)).reshape(fine.size, -1)
    return coarse, fine, np.max(size, axis=1, where=np.isfinite(size), initial=0.0)


def integrate_root_intervals(
    log_abs, roots, exponents, end_exponent: float, tol: float, *, interval=(-1.0, 1.0), log_weight=None
) -> tuple[IntegralResult, ...]:
    """integral over (a, b) of |P(t)|^p ((t - a)(b - t))^end_exponent exp(log_weight(t)) dt for each exponent p.

    (a, b) is ``interval``.  ``log_abs`` maps an ndarray of abscissae to
    log|P| (up to a constant) for a polynomial P whose roots in (a, b) are
    exactly ``roots``, at least one and all simple; it is called once per
    round, on the nodes of every exponent still open.  ``log_weight``, if
    given, is the log of a weight smooth on [a, b].  The exponents and
    ``end_exponent`` must exceed -1.  One result is returned per exponent.

    First round: each interval between consecutive edges of (a, roots..., b)
    gets the 16- and the 32-node Gauss-Jacobi rule with exponent p at a root
    and ``end_exponent`` at a or b.  The value is the 32-node logsumexp, and
    ``relative_error`` its gap to the 16-node sum plus the rounding of the
    logarithms summed.  The result (``method`` GAUSS_JACOBI) counts as
    converged when the gap is within ``tol`` plus that rounding: the gap of
    two sums of size L cannot resolve less than an ulp of L.

    Bisection (``method`` ADAPTIVE): where the first round misses that, each
    round bisects the panels whose own gap exceeds an equal share of ``tol``.
    A child keeps its parent's exponent on the side it still touches and gets
    0 on the new side.  The error is the summed panel gaps plus each panel's
    log rounding weighted by its share of the sum.  A sum that is not finite,
    which bisection cannot mend, or more than ``MAX_PANELS`` panels end the
    loop with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    exponents = tuple(float(p) for p in exponents)
    end_exponent = float(end_exponent)
    if not min(exponents + (end_exponent,)) > -1.0:
        raise ValueError(f"exponents must exceed -1, got {exponents} and end exponent {end_exponent}")
    edges = np.array([interval[0], *roots, interval[1]], dtype=float)
    if len(edges) < 3 or np.any(np.diff(edges) <= 0):
        raise ValueError("roots must be non-empty and strictly increasing inside the interval")
    row = np.ones(len(edges) - 1, dtype=int)
    row[0], row[-1] = 0, 2
    e = end_exponent
    jobs = [(p, edges[:-1], edges[1:], ((p, e), (p, p), (e, p)), row) for p in exponents]
    terms = _log_terms(log_abs, jobs, e, interval, log_weight)

    results = []
    panels = {}  # exponent index -> (lo, hi, (alpha, beta) rows, coarse, fine, size) per panel
    for k, (p, lo, hi, pairs, _) in enumerate(jobs):
        (coarse_f, coarse_rest), (fine_f, fine_rest) = terms[k]
        coarse = _log_sum_exp(coarse_f + coarse_rest)
        fine = _log_sum_exp(fine_f + fine_rest)
        gap = abs(math.expm1(coarse - fine)) if math.isfinite(fine) else math.inf
        # each summand's logarithm is rounded at the size of its parts, which
        # is a relative error of the sum the m/2m gap does not see
        size = np.abs(fine_f) + np.abs(fine_rest)
        rounding = 4.0 * _EPS * float(np.max(size, where=np.isfinite(size), initial=0.0))
        converged = math.isfinite(gap) and gap <= tol + rounding
        results.append(IntegralResult.from_log(fine, gap + rounding, len(lo), converged, GAUSS_JACOBI))
        if not converged and math.isfinite(fine):
            panels[k] = (lo, hi, np.array(pairs)[row], *_panel_sums(terms[k]))

    while panels:
        jobs, children = [], []
        for k, (lo, hi, ab, coarse, fine, size) in list(panels.items()):
            total = _log_sum_exp(fine)
            share = np.exp(fine - total)
            err = np.abs(np.exp(coarse - total) - share)
            gap = math.fsum(err)
            rounding = 4.0 * _EPS * math.fsum(share * size)
            split = err > tol / len(err)
            converged = math.isfinite(total) and gap <= tol + rounding
            if converged or not math.isfinite(gap) or len(lo) + np.count_nonzero(split) > MAX_PANELS:
                results[k] = IntegralResult.from_log(total, gap + rounding, len(lo), converged, ADAPTIVE)
                del panels[k]
                continue
            mid = 0.5 * (lo[split] + hi[split])
            zero = np.zeros_like(mid)
            # the left child keeps beta, the parent's exponent at lo, and the
            # right child alpha, its exponent at hi
            child_ab = np.concatenate([np.column_stack([zero, ab[split, 1]]), np.column_stack([ab[split, 0], zero])])
            pairs, row = np.unique(child_ab, axis=0, return_inverse=True)
            child_lo, child_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            jobs.append((exponents[k], child_lo, child_hi, tuple(map(tuple, pairs.tolist())), row.reshape(-1)))
            children.append((k, child_lo, child_hi, child_ab))
            panels[k] = tuple(column[~split] for column in panels[k])
        if not jobs:
            break
        for (k, *new), sums in zip(children, _log_terms(log_abs, jobs, e, interval, log_weight)):
            panels[k] = tuple(np.concatenate(pair) for pair in zip(panels[k], (*new, *_panel_sums(sums))))
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
    end_exponent : e > -1 where ``f`` behaves like |t - a|^e and |b - t|^e
        times an analytic factor at the ends; every panel touching an end
        uses a Gauss-Jacobi rule with that exponent on that side, and every
        other panel the Gauss-Legendre pair.

    Returns ``converged=False`` when the panel budget ``max_panels`` runs out,
    and at once, with a NaN value, when a panel's value is not finite:
    bisection cannot make an overflowed integrand finite.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"empty interval {interval}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    end_exponent = float(end_exponent)
    if not end_exponent > -1.0:
        raise ValueError(f"end exponent must exceed -1, got {end_exponent}")
    if isinstance(breakpoints, RootList):
        breakpoints = breakpoints.roots
    points = () if breakpoints is None else breakpoints
    cuts = sorted({float(p) for p in points if a < p < b})
    edges = [a, *cuts, b]
    sides = [end_exponent, *(0.0 for _ in cuts), end_exponent]

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
