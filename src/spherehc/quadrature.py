"""Quadrature for piecewise-smooth integrands: Gauss-Jacobi rules on root
intervals in log space and adaptive panels in linear space.

``integrate_root_intervals`` takes every integral of the form |P|^p times a
weight: the zonal |C_d|^p, general zonal series and the Gaussian side.  Between
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
entropy and subordination.  It splits at the
given breakpoints and runs the same bisection rounds (``_bisect``), with the
panel values summed in linear space.  Both integrators take the end weight
((t - a)(b - t))^end_exponent from ``_bisect``, which builds every panel's
log weights in one place: the Gauss-Jacobi rule's weights with its own
weight function divided out, the panel's half-width and the end weight.

Non-convergence, including a non-finite sum, is reported through
``converged=False``, never as a silently wrong value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .verdict import Verdict

__all__ = [
    "IntegralResult",
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
_RULES = (slice(0, _COARSE), slice(_COARSE, _COARSE + _FINE))  # the two rules in a row of 48 nodes
_EPS = float(np.finfo(float).eps)
# a 16-node sum e^700 times the 32-node one is as wrong as any larger; capped
# there, a gap stays finite (MAX_PANELS of e^700 sum below the float max)
_LOG_GAP_CAP = 700.0


@lru_cache(maxsize=256)
def _jacobi_log_rule(count: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, log weights and rule-only log weights log w - alpha log(1 - x) - beta log(1 + x)
    of the Gauss-Jacobi rule on [-1, 1] for the weight (1 - x)^alpha (1 + x)^beta.

    The rule-only weights divide the rule's own weight function out, so the
    rule applies to an integrand that still carries those powers.  The powers
    are taken with log1p: log(1 - x) of a rounded 1 - x is off by eps/2, which
    alpha multiplies; at alpha = beta = 2499 that put a zonal L^2 norm about
    4e-14 off, outside its band.  Nodes and log weights come from
    ``specfun.jacobi_rule_log``; with alpha < beta the rule is the (beta,
    alpha) rule mirrored, so the two share one build.  The cache holds at
    most 256 rules.
    """
    if alpha < beta:
        x, log_w, _ = _jacobi_log_rule(count, beta, alpha)
        x, log_w = -x[::-1], log_w[::-1]
    else:
        x, log_w = specfun.jacobi_rule_log(count, float(alpha), float(beta))
    rest = log_w - alpha * np.log1p(-x) - beta * np.log1p(x)
    for array in (x, log_w, rest):
        array.flags.writeable = False
    return x, log_w, rest


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


def _log_sum_exp(terms: np.ndarray, size: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Per row of ``terms`` (the last axis): log sum exp(terms), and the mean of
    ``size`` weighted by each term's share of that sum (None without ``size``).

    A non-finite size counts as 0 (its term is -inf, with no share).  A row
    whose largest term is not finite gives that term and a mean of 0.
    """
    top = terms.max(-1)
    finite = np.isfinite(top)
    # shifted by the largest term, so no exponential overflows; a top of
    # +-inf gives inf - inf = NaN, which the finite mask replaces
    with np.errstate(invalid="ignore"):
        scaled = np.exp(terms - top[..., None])
        mass = scaled.sum(-1)
        total = top + np.log(mass)
        mean = None if size is None else (scaled * np.where(np.isfinite(size), size, 0.0)).sum(-1) / mass
    if finite.all():
        return total, mean
    return np.where(finite, total, top), None if mean is None else np.where(finite, mean, 0.0)


@lru_cache(maxsize=256)
def _rule_rows(levels: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and rule-only log weights of the 16- and then the 32-node Gauss-Jacobi rule,
    one row per pair of exponents in ``levels``.

    Row i * len(levels) + j has alpha = levels[i], the exponent at the right
    edge (x = 1) of a panel, and beta = levels[j], the exponent at its left.
    """
    rules = [[_jacobi_log_rule(count, alpha, beta) for count in (_COARSE, _FINE)] for alpha in levels for beta in levels]
    x, rest = (np.array([np.concatenate([coarse[i], fine[i]]) for coarse, fine in rules]) for i in (0, 2))
    x.flags.writeable = False
    rest.flags.writeable = False
    return x, rest


def _job(edges: np.ndarray, inner: float, end: float) -> tuple:
    """A job for ``_bisect``: one panel between each two consecutive ``edges``,
    with exponent ``end`` at the first and the last edge and ``inner`` at the others."""
    # the exponents a panel edge can carry: these two, and the 0 that bisection gives every new edge
    levels = tuple(dict.fromkeys((0.0, inner, end)))
    left = np.full(len(edges) - 1, levels.index(inner))
    right = left.copy()
    left[0] = right[-1] = levels.index(end)
    return (levels, edges[0], edges[-1], end), np.column_stack([edges[:-1], edges[1:]]), right * len(levels) + left


def _bisect(f, jobs, weigh, settle) -> list[IntegralResult]:
    """The bisection rounds of both integrators: one result per job.

    A job is ((levels, a, b, e), spans, rows): panel i spans [spans[i, 0],
    spans[i, 1]] and takes row rows[i] = r * len(levels) + l of
    ``_rule_rows(levels)``, with levels[l] its exponent at the left end and
    levels[r] at the right.  Each round calls ``f`` once, on the 16 and the
    32 nodes of every new panel of every open job.

    A panel's log weights are its row's rule-only log weights, plus the log
    of its half-width, plus e log((t - a)(b - t)) when e is not 0, so that
    the sum of exp(log weight) f(t) over either rule is the panel's integral
    of f(t) ((t - a)(b - t))^e.  ``weigh(k, spans, (values, t, log_w),
    first)`` turns job k's new panels into one row of sums per panel
    (coarse, fine, ...): ``values`` of ``f`` at the abscissae ``t`` and the
    log weights ``log_w`` have one row of 16 + 32 per panel.  In the first
    round it may return a final IntegralResult instead.  ``settle(k, sums)``
    gives (converged, split, result) for all panels of job k.  The job ends
    with ``result()`` when it converged, when nothing is to be split (split
    None or all False) or when the split would pass ``MAX_PANELS``.
    Otherwise the panels where split holds are bisected: a child keeps its
    parent's exponent on the side it still touches and gets levels[0] = 0 on
    the new side, so the left child takes row l and the right child row
    r * len(levels).
    """
    results: dict[int, IntegralResult] = {}
    panels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # k -> spans, rows, sums
    new = {k: job[1:] for k, job in enumerate(jobs)}
    first = True
    while new:
        built = {}
        for k, (spans, rows) in new.items():
            levels, a, b, e = jobs[k][0]
            x, rest = _rule_rows(levels)
            lo, hi = spans[:, :1], spans[:, 1:]
            half = 0.5 * (hi - lo)
            x = x[rows]
            rise = half * (1.0 + x)
            t = lo + rise
            log_w = rest[rows] + np.log(half)
            if e != 0.0:
                # t - a = (lo - a) + half (1 + x) and b - t = (b - hi) + half (1 - x)
                # are exact next to an end, where lo - a or b - hi is 0; but each
                # log carries about eps of rounding, which e multiplies.  Where
                # s = (t - (a + b)/2) / ((b - a)/2) has s^2 < 1/4, the weight is
                # ((b - a)/2)^2 (1 - s^2) instead, whose log1p rounds at s^2 eps.
                s2 = ((t - 0.5 * (a + b)) / (0.5 * (b - a))) ** 2
                ends = np.log((lo - a) + rise) + np.log((b - hi) + half * (1.0 - x))
                centre = 2.0 * math.log(0.5 * (b - a)) + np.log1p(-np.minimum(s2, 0.25))
                log_w += e * np.where(s2 < 0.25, centre, ends)
            built[k] = (t, log_w)
        values = np.asarray(f(np.concatenate([t.ravel() for t, _ in built.values()])), dtype=float)
        end = 0
        for k, (t, log_w) in built.items():
            start, end = end, end + t.size
            sums = weigh(k, new[k][0], (values[start:end].reshape(t.shape), t, log_w), first)
            if isinstance(sums, IntegralResult):
                results[k] = sums
                continue
            added = (*new[k], sums)
            panels[k] = tuple(map(np.concatenate, zip(panels[k], added))) if k in panels else added
        new = {}
        for k, (spans, rows, sums) in list(panels.items()):
            converged, split, result = settle(k, sums)
            grow = 0 if split is None else np.count_nonzero(split)
            if converged or not grow or len(spans) + grow > MAX_PANELS:
                results[k] = result()
                del panels[k]
                continue
            keep = ~split
            panels[k] = (spans[keep], rows[keep], sums[keep])
            spans, rows = spans[split], rows[split]
            mid = 0.5 * (spans[:, 0] + spans[:, 1])
            # the left children [lo, mid] first, then the right children [mid, hi]
            spans = np.concatenate([spans, spans])
            spans[:grow, 1] = spans[grow:, 0] = mid
            left = rows % len(jobs[k][0][0])
            new[k] = (spans, np.concatenate([left, rows - left]))
        first = False
    return [results[k] for k in range(len(jobs))]


def _panel_sums(terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of nodes: the log 16-node sum, the log 32-node sum and the log size on the 32 nodes.

    ``terms`` holds (p log|P|, log w) for each rule.  A summand's log size
    is |p log|P|| + |log w|: its logarithm is rounded at about eps times
    that, a relative error of the sum the 16/32 gap does not see.  The row's
    log size is the mean over its summands, each weighted by its share of
    the 32-node sum.
    """
    (coarse_f, coarse_w), (fine_f, fine_w) = terms
    coarse, _ = _log_sum_exp(coarse_f + coarse_w)
    fine, size = _log_sum_exp(fine_f + fine_w, np.abs(fine_f) + np.abs(fine_w))
    return coarse, fine, size


def integrate_root_intervals(
    log_abs, roots, exponents, end_exponent: float, tol: float, *, interval=(-1.0, 1.0), log_weight=None
) -> tuple[IntegralResult, ...]:
    """integral over (a, b) of |P(t)|^p ((t - a)(b - t))^end_exponent exp(log_weight(t)) dt for each exponent p.

    (a, b) is ``interval``.  ``log_abs`` maps an ndarray of abscissae to
    log|P| (up to a constant) for a polynomial P whose roots in (a, b) are
    exactly ``roots``, all simple; with none, (a, b) is one interval.  It is
    called once per round, on the nodes of every exponent still open.
    ``log_weight``, if given, is the log of a weight smooth on [a, b].  The
    exponents and ``end_exponent`` must exceed -1.  One result is returned
    per exponent.

    Every round's ``relative_error`` is its 16/32 gap plus one rounding term,
    4 eps times the log size of the sum: the mean of the summands' log sizes
    |p log|P|| + |log w|, each weighted by its share of the 32-node sum
    (``_panel_sums``).  A summand's logarithm is rounded at about eps times
    its size, a relative error the gap does not see, and the gap of two sums
    of size L cannot resolve less than an ulp of L; so a round counts as
    converged when its gap is within ``tol`` plus that rounding.

    First round: each interval between consecutive edges of (a, roots..., b)
    gets the 16- and the 32-node Gauss-Jacobi rule with exponent p at a root
    and ``end_exponent`` at a or b.  All nodes are summed as one row, the
    value is the 32-node logsumexp and ``method`` is GAUSS_JACOBI.

    Bisection (``method`` ADAPTIVE): where the first round misses that, each
    round bisects the panels whose own gap exceeds an equal share of ``tol``.
    The gap is the sum of the panel gaps, and the log size is the panels'
    own, each weighted by the panel's share of the sum: the same mean over
    all summands as in the first round.  A sum that is not finite, which
    bisection cannot mend, or more than ``MAX_PANELS`` panels end the loop
    with ``converged=False``.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    exponents = tuple(float(p) for p in exponents)
    e = float(end_exponent)
    if not min(exponents + (e,)) > -1.0:
        raise ValueError(f"exponents must exceed -1, got {exponents} and end exponent {e}")
    edges = np.array([interval[0], *roots, interval[1]], dtype=float)
    if np.any(np.diff(edges) <= 0):
        raise ValueError("roots must be strictly increasing inside the interval")

    def weigh(k, spans, part, first):
        log_f, t, log_w = part
        if log_weight is not None:
            log_w += log_weight(t.ravel()).reshape(t.shape)
        log_f = exponents[k] * log_f
        terms = [(log_f[:, rule], log_w[:, rule]) for rule in _RULES]
        if first:
            # all nodes of the job as one row
            coarse, fine, size = map(float, _panel_sums([(f.ravel(), w.ravel()) for f, w in terms]))
            gap = abs(math.expm1(min(coarse - fine, _LOG_GAP_CAP))) if math.isfinite(fine) else math.inf
            rounding = 4.0 * _EPS * size
            converged = math.isfinite(gap) and gap <= tol + rounding
            if converged or not math.isfinite(fine):
                return IntegralResult.from_log(fine, gap + rounding, len(spans), converged, GAUSS_JACOBI)
        return np.column_stack(_panel_sums(terms))

    def settle(k, sums):
        coarse, fine, size = sums.T
        # the panels' log sizes, each weighted by the panel's share of the sum
        total, size = map(float, _log_sum_exp(fine, size))
        share = np.exp(fine - total)
        err = np.abs(np.exp(np.minimum(coarse - total, _LOG_GAP_CAP)) - share)
        gap = math.fsum(err)
        rounding = 4.0 * _EPS * size
        converged = math.isfinite(total) and gap <= tol + rounding
        split = err > tol / len(err) if math.isfinite(gap) else None
        return converged, split, lambda: IntegralResult.from_log(total, gap + rounding, len(fine), converged, ADAPTIVE)

    return tuple(_bisect(log_abs, [_job(edges, p, e) for p in exponents], weigh, settle))


def integrate_piecewise(f, breakpoints, interval, tol: float, *, end_exponent: float = 0.0) -> IntegralResult:
    """Integrate ``f`` times the end weight ((t - a)(b - t))^end_exponent over
    ``interval`` = (a, b), splitting exactly at ``breakpoints``.

    Parameters
    ----------
    f : callable mapping an ndarray of abscissae to an ndarray of values;
        it is called once per round, on the 48 nodes of both rule sizes of
        every new panel.
    breakpoints : sequence of floats; points where the integrand has kinks.
        Points outside the open interval are ignored.
    interval : (a, b) with a < b.
    tol : target relative tolerance.  Each round bisects the panels whose
        16/32 gap exceeds an equal share of tol times the integral's
        magnitude (the L1 sum of the panel values, which sees cancellation),
        until the summed gap drops below that.
    end_exponent : e > -1; the integral is of f(t) ((t - a)(b - t))^e, the
        end weight that ``integrate_root_intervals`` takes too, and ``f``
        itself should be smooth at the ends.  Every panel touching an end
        uses a Gauss-Jacobi rule with exponent e on that side, and every
        other panel the Gauss-Legendre pair.

    The rounds are those of ``integrate_root_intervals``, with the panel
    values summed in linear space.  Returns ``converged=False`` when the
    split would pass ``MAX_PANELS`` panels, and at once, with a NaN value,
    when a panel's value is not finite: bisection cannot make an overflowed
    integrand finite.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"empty interval {interval}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    end_exponent = float(end_exponent)
    if not end_exponent > -1.0:
        raise ValueError(f"end exponent must exceed -1, got {end_exponent}")
    edges = np.array([a, *sorted({float(p) for p in breakpoints if a < p < b}), b])

    def weigh(k, spans, part, first):
        values, _, log_w = part
        w = np.exp(log_w)
        # a panel's sum over each rule is w . f, one dot product per panel:
        # the same sum as on that panel alone
        return np.concatenate([(w[:, None, rule] @ values[:, rule, None])[:, 0] for rule in _RULES], axis=1)

    def settle(k, sums):
        # in Python floats: a few panels are summed faster so, and an
        # overflowed panel's inf - inf gives NaN without a warning
        coarse, fine = sums.T.tolist()
        err = [abs(value - estimate) for estimate, value in zip(coarse, fine)]
        err_total, abs_total = math.fsum(err), math.fsum(map(abs, fine))
        if not math.isfinite(err_total + abs_total):
            return False, None, lambda: IntegralResult(math.nan, math.inf, len(fine), False)
        allowed = tol * max(abs_total, 1e-300)
        converged = err_total <= allowed
        return converged, np.array(err) > allowed / len(err), lambda: IntegralResult(math.fsum(fine), err_total, len(fine), converged)

    return _bisect(f, [_job(edges, 0.0, end_exponent)], weigh, settle)[0]


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
