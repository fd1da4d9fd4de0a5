"""Quadrature for piecewise-smooth integrands: Gauss-Jacobi rules on root
intervals in log space and adaptive panels in linear space.

``integrate_root_intervals`` takes every integral of the form |P|^p times a
weight: the zonal |C_d|^p, general zonal series and the Gaussian side.  Between
consecutive edges of (a, roots of P..., b), |P|^p behaves like a known power
of the distance to each edge times an analytic factor, so each interval gets
a Gauss-Jacobi rule carrying those exponents (``specfun._jacobi_rules``:
Golub-Welsch nodes, Math. Comp. 23 (1969), and log weights from the same
recurrence pass).  The caller supplies log|P|, and the nodes are summed as a
logsumexp of p log|P| plus the log weight, so |P|^p never has to fit in a
float.  An even integrand (Y_d and h_d: P even or odd, the weight even) is
integrated over one half and doubled, so each node and root is met once.
Several polynomials can share a call (``_integrate_root_lists``, for the
zonal Y_d of several degrees): a job is a (polynomial, exponent) pair with
its polynomial's edges, and log|P| is evaluated for all of them at once.
Where the 16/32-node gap misses the tolerance, the panels whose own gap is
too large are bisected, still in log space, in the manner of QUADPACK's
QAWS (Piessens et al., QUADPACK, Springer 1983).

``integrate_piecewise`` serves the integrands that are not |P|^p: the signed
entropy and subordination.  It splits at the given breakpoints and runs the
same bisection rounds (``_bisect``), with the panel values summed in linear
space.  ``_bisect`` checks both integrators' exponents and edges and builds
every panel's log weights in one place: the Gauss-Jacobi rule's weights with
its own weight function divided out, the panel's half-width, the end weight
((t - a)(b - t))^end_exponent and the caller's smooth log weight (the
Gaussian density).  Each round holds the panels of all jobs of a call in
one table and builds their nodes and weights in one broadcast; in the first
round each job's nodes are one row of a stacked logsumexp, one stack per
run of jobs with the same panel count.

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
    "NormValue",
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
_LN2 = math.log(2.0)
# a 16-node sum e^700 times the 32-node one is as wrong as any larger; capped
# there, a gap stays finite (MAX_PANELS of e^700 sum below the float max)
_LOG_GAP_CAP = 700.0


@lru_cache(maxsize=256)
def _panel_rules(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, log weights and rule-only log weights log w - alpha log(1 - x) - beta log(1 + x)
    of the 16- and then the 32-node Gauss-Jacobi rule on [-1, 1] for the weight
    (1 - x)^alpha (1 + x)^beta, one row of 48 (``_RULES``).

    The rule-only weights divide the rule's own weight function out, so the
    rule applies to an integrand that still carries those powers.  The powers
    are taken with log1p: log(1 - x) of a rounded 1 - x is off by eps/2, which
    alpha multiplies; at alpha = beta = 2499 that put a zonal L^2 norm about
    4e-14 off, outside its band.  Both rules come from one
    ``specfun._jacobi_rules`` call; with alpha < beta they are the (beta,
    alpha) rules mirrored, so the two share one build.  The cache holds at
    most 256 pairs.
    """
    if alpha < beta:
        x, log_w, _ = _panel_rules(beta, alpha)
        x, log_w = (np.concatenate([row[rule][::-1] for rule in _RULES]) for row in (-x, log_w))
    else:
        fine, coarse = specfun._jacobi_rules((_FINE, _COARSE), float(alpha), float(beta))
        x, log_w = (np.concatenate(pair) for pair in zip(coarse, fine))
    rest = log_w - alpha * np.log1p(-x) - beta * np.log1p(x)
    for array in (x, log_w, rest):
        array.flags.writeable = False
    return x, log_w, rest


@dataclass(frozen=True)
class IntegralResult:
    """A signed integral of ``integrate_piecewise`` in linear space, with its error estimate.

    ``subintervals_used`` counts the panels of the last round.
    """

    value: float
    error_estimate: float
    subintervals_used: int
    converged: bool = True


@dataclass(frozen=True)
class NormValue:
    """A positive quantity in log space with provenance: a |P|^p integral of
    ``integrate_root_intervals``, an L^p norm or a norm ratio ||.||_q / ||.||_p (q >= p).

    ``log_value`` is finite unless ``converged`` is False; ``value`` is
    exp(log_value) and may overflow to inf.  ``error_estimate`` is relative
    to value, so a band on log_value (zero for closed forms up to rounding).
    ``method`` is ``norms.CLOSED_FORM``, ``norms.GAUSS_GEGENBAUER`` or
    ``norms.GAUSS_HERMITE`` (an exact rule, one panel) or the integral's
    own: GAUSS_JACOBI when the first round of root intervals converged,
    ADAPTIVE when it bisected; a ratio's is its norms' method when they
    share one, else ADAPTIVE.
    ``panels`` counts the integral's panels in its last round; a ratio's is
    the sum of its norms', a closed form's 0.  A ratio is not
    ``converged`` when a norm is not, or when it is below 1 past its band.
    """

    log_value: float
    error_estimate: float
    method: str
    converged: bool = True
    panels: int = 0

    @property
    def value(self) -> float:
        return _exp(self.log_value)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_tol(tol: float) -> None:
    """ValueError unless the tolerance is positive: 0, a negative value and NaN are refused."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


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
    rules = [_panel_rules(alpha, beta) for alpha in levels for beta in levels]
    x, rest = (np.array([rule[i] for rule in rules]) for i in (0, 2))
    x.flags.writeable = False
    rest.flags.writeable = False
    return x, rest


def _bisect(f, groups, ends, end: float, inners, weigh, settle, log_weight=None) -> list:
    """The bisection rounds of both integrators: one result per job.

    Each group is a pair (edges, cuts), and job g len(inners) + k, of group
    g and inner exponent k, integrates f(t) ((t - a)(b - t))^end w(t) over
    (edges[0], edges[-1]), w = exp(log_weight) or 1, where (a, b) =
    ``ends`` are the end weight's ends, a <= edges[0] and edges[-1] = b.  It
    starts from one panel between each two consecutive edges, with exponent
    ``end`` at an edge at a or b, 0 at an edge in ``cuts`` and inners[k] at
    every other edge (a root); ValueError unless every exponent exceeds -1
    and the edges increase.  The jobs share levels = (0, end, inners...)
    without repeats: a panel with exponent levels[l] at its left end and
    levels[r] at its right takes row r * len(levels) + l of
    ``_rule_rows(levels)``, so jobs differ only in their rows.

    One table holds the open panels of all jobs: spans, rows, job index and
    sums.  Each round gathers the rule rows of its new panels and builds
    their abscissae and log weights in one broadcast: the row's rule-only
    log weights, plus the log of the half-width, plus end log((t - a)(b - t))
    when end is not 0, plus log_weight(t), so that the sum of exp(log weight)
    f(t) over either rule is the panel's integral of f(t) ((t - a)(b - t))^end
    w(t).  It calls ``f(t, counts)`` once, on the 16 and the 32 nodes of
    every new panel.  The new panels are in job order, and each job's in
    the order they were made (stable), so the nodes of group g come before
    those of group g + 1, counts[g] of them, and every job sees the panels
    it would see alone.  ``weigh(job, (values, log_w), first)`` gets the new
    panels' job indices and, one row of 16 + 32 per panel, the values of
    ``f`` and the log weights.  It returns (done, sums): one row of sums per
    new panel (coarse, fine, ...), and in the first round the jobs it
    finished, mapped to their results, with sums None when that is every
    job.  ``settle(k, sums)`` gives (converged, split, result) for all
    panels of job k, in the order they were made.  The job ends with
    ``result()`` when it converged, when nothing is to be split (split None
    or all False) or when the split would pass ``MAX_PANELS``.  Otherwise the panels where split holds are
    bisected: a child keeps its parent's exponent on the side it still
    touches and gets levels[0] = 0 on the new side, so the left child takes
    row l and the right child row r * len(levels).
    """
    if not all(e > -1.0 for e in (end, *inners)):
        raise ValueError(f"exponents must exceed -1, got {tuple(inners)} and end exponent {end}")
    levels = tuple(dict.fromkeys((0.0, end, *inners)))
    x, rest = _rule_rows(levels)
    a, b = ends
    jobs = len(groups) * len(inners)
    spans, rows, job = [], [], []
    for g, (edges, cuts) in enumerate(groups):
        if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
            raise ValueError(f"edges must strictly increase, got {edges}")
        # each edge's level per job: end's at a or b, 0 at a cut, the job's own (None here) at a root
        kinds = [levels.index(end) if e == a or e == b else 0 if e in cuts else None for e in edges]
        for k, p in enumerate(inners):
            at = [levels.index(p) if kind is None else kind for kind in kinds]
            rows += [r * len(levels) + l for l, r in zip(at, at[1:])]
            job += [g * len(inners) + k] * (len(edges) - 1)
            spans += [e for pair in zip(edges, edges[1:]) for e in pair]
    spans, rows, job = np.array(spans).reshape(-1, 2), np.array(rows), np.array(job)
    table = None
    results = {}
    while True:
        lo, hi = spans[:, :1], spans[:, 1:]
        half = 0.5 * (hi - lo)
        nodes = x[rows]
        rise = half * (1.0 + nodes)
        t = lo + rise
        log_w = rest[rows] + np.log(half)
        if end != 0.0:
            # t - a = (lo - a) + half (1 + x) and b - t = (b - hi) + half (1 - x)
            # are exact next to an end, where lo - a or b - hi is 0; but each
            # log carries about eps of rounding, which end multiplies.  Where
            # s = (t - (a + b)/2) / ((b - a)/2) has s^2 < 1/4, the weight is
            # ((b - a)/2)^2 (1 - s^2) instead, whose log1p rounds at s^2 eps.
            s2 = ((t - 0.5 * (a + b)) / (0.5 * (b - a))) ** 2
            ends = np.log((lo - a) + rise) + np.log((b - hi) + half * (1.0 - nodes))
            centre = 2.0 * math.log(0.5 * (b - a)) + np.log1p(-np.minimum(s2, 0.25))
            log_w += end * np.where(s2 < 0.25, centre, ends)
        if log_weight is not None:
            log_w += log_weight(t.ravel()).reshape(t.shape)
        counts = (np.bincount(job // len(inners), minlength=len(groups)) * t.shape[1]).tolist()
        values = np.asarray(f(t.ravel(), counts), dtype=float).reshape(t.shape)
        done, sums = weigh(job, (values, log_w), table is None)
        results.update(done)
        if sums is None:
            break
        # each job's panels in order: those kept from earlier rounds, then the new ones
        new = (spans, rows, job, sums)
        table = new if table is None else [np.concatenate(pair) for pair in zip(table, new)]
        spans, rows, job, sums = table
        split = np.zeros(len(job), dtype=bool)
        for k in range(jobs):
            if k in results:
                continue
            mine = job == k
            converged, part, result = settle(k, sums[mine])
            grow = 0 if part is None else np.count_nonzero(part)
            if converged or not grow or len(part) + grow > MAX_PANELS:
                results[k] = result()
            else:
                split[mine] = part
        if len(results) == jobs:
            break
        keep = ~split & np.array([k not in results for k in range(jobs)])[job]
        table = [column[keep] for column in table]
        spans, rows, job = spans[split], rows[split], job[split]
        mid = 0.5 * (spans[:, 0] + spans[:, 1])
        # the left children [lo, mid] first, then the right children [mid, hi]
        grow = len(mid)
        spans = np.concatenate([spans, spans])
        spans[:grow, 1] = spans[grow:, 0] = mid
        left = rows % len(levels)
        rows, job = np.concatenate([left, rows - left]), np.concatenate([job, job])
        order = np.argsort(job, kind="stable")
        spans, rows, job = spans[order], rows[order], job[order]
    return [results[k] for k in range(jobs)]


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
    log_abs, roots, exponents, end_exponent: float, tol: float, *, interval=(-1.0, 1.0), log_weight=None, even=False
) -> tuple[NormValue, ...]:
    """integral over (a, b) of |P(t)|^p ((t - a)(b - t))^end_exponent exp(log_weight(t)) dt for each exponent p.

    (a, b) is ``interval``.  ``log_abs`` maps an ndarray of abscissae to
    log|P| (up to a constant) for a polynomial P whose roots in (a, b) are
    exactly ``roots``, all simple; with none, (a, b) is one interval.  It is
    called once per round, on the nodes of every exponent still open.
    ``log_weight``, if given, is the log of a weight smooth on [a, b].  The
    exponents and ``end_exponent`` must exceed -1.  One ``NormValue`` is
    returned per exponent, its ``panels`` those of its last round.

    ``even=True`` declares log|P| and ``log_weight`` even about c = (a + b)/2
    and ``roots`` symmetric about c, exactly as floats (ValueError if not).
    Then only [c, b] is integrated, between the edges (c, roots > c..., b),
    and the result is doubled: ``log_value`` gains log 2, and the relative
    ``error_estimate`` is that of the half.  The edge c carries exponent p
    when it is a root and 0 otherwise.

    Every round's ``error_estimate`` is its 16/32 gap plus one rounding term,
    4 eps times the log size of the sum: the mean of the summands' log sizes
    |p log|P|| + |log w|, each weighted by its share of the 32-node sum
    (``_panel_sums``).  A summand's logarithm is rounded at about eps times
    its size, a relative error the gap does not see, and the gap of two sums
    of size L cannot resolve less than an ulp of L; so a round counts as
    converged when its gap is within ``tol`` plus that rounding.

    First round: each interval between consecutive edges, of (a, roots...,
    b) or of the half, gets the 16- and the 32-node Gauss-Jacobi rule with
    exponent p at a root and ``end_exponent`` at a or b.  All nodes are
    summed as one row, the value is the 32-node logsumexp and ``method`` is
    GAUSS_JACOBI.

    Bisection (``method`` ADAPTIVE): where the first round misses that, each
    round bisects the panels whose own gap exceeds an equal share of ``tol``.
    The gap is the sum of the panel gaps, and the log size is the panels'
    own, each weighted by the panel's share of the sum: the same mean over
    all summands as in the first round.  A sum that is not finite, which
    bisection cannot mend, or more than ``MAX_PANELS`` panels end the loop
    with ``converged=False``.
    """
    args = (exponents, end_exponent, tol, interval, log_weight, even)
    return _integrate_root_lists(lambda t, counts: log_abs(t), [roots], *args)[0]


def _integrate_root_lists(
    log_abs, root_lists, exponents, end_exponent: float, tol: float, interval, log_weight, even
) -> list[tuple[NormValue, ...]]:
    """``integrate_root_intervals`` for several polynomials P_i at once, one root list each.

    Returns one tuple of ``NormValue``s per polynomial.  ``log_abs(t,
    counts)`` gets the nodes of P_0 first, then those of P_1 and so on,
    counts[i] of P_i.  A job is a (polynomial, exponent) pair with the edges
    of its polynomial, and ``_bisect`` hands each job the panels it would
    have alone, so where log|P_i| is bitwise that of a one-polynomial call,
    so is every result.
    """
    _check_tol(tol)
    powers = [float(p) for p in exponents]
    a, b = float(interval[0]), float(interval[1])
    c = 0.5 * (a + b)
    groups = []
    for roots in root_lists:
        roots = [float(r) for r in roots]
        if not even:
            groups.append(([a, *roots, b], ()))
        elif roots != [2.0 * c - r for r in reversed(roots)]:
            raise ValueError(f"an even integrand needs roots symmetric about {c}, got {roots}")
        else:
            groups.append(([c, *(r for r in roots if r > c), b], () if c in roots else (c,)))
    log_scale = _LN2 if even else 0.0
    job_powers = np.array(powers * len(groups))
    # the first round's jobs in runs of one panel count: [panels, jobs]
    runs = []
    for edges, _ in groups:
        if runs and runs[-1][0] == len(edges) - 1:
            runs[-1][1] += len(powers)
        else:
            runs.append([len(edges) - 1, len(powers)])

    def weigh(job, part, first):
        log_f, log_w = part
        log_f = job_powers[job, None] * log_f
        terms = [(log_f[:, rule], log_w[:, rule]) for rule in _RULES]
        done = {}
        if first:
            # all nodes of each job as one row: the jobs are in order, and a
            # run of jobs with one panel count makes one table of rows
            start, k = 0, 0
            for count, rows in runs:
                block = slice(start, start + rows * count)
                whole = _panel_sums([(f[block].reshape(rows, -1), w[block].reshape(rows, -1)) for f, w in terms])
                for coarse, fine, size in zip(*(row.tolist() for row in whole)):
                    gap = abs(math.expm1(min(coarse - fine, _LOG_GAP_CAP))) if math.isfinite(fine) else math.inf
                    rounding = 4.0 * _EPS * size
                    converged = math.isfinite(gap) and gap <= tol + rounding
                    if converged or not math.isfinite(fine):
                        done[k] = NormValue(fine + log_scale, gap + rounding, GAUSS_JACOBI, converged, count)
                    k += 1
                start = block.stop
            if len(done) == k:
                return done, None
        return done, np.column_stack(_panel_sums(terms))

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
        return converged, split, lambda: NormValue(total + log_scale, gap + rounding, ADAPTIVE, converged, len(fine))

    results = _bisect(log_abs, groups, (a, b), float(end_exponent), powers, weigh, settle, log_weight)
    return [tuple(results[i : i + len(powers)]) for i in range(0, len(results), len(powers))]


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
    interval : (a, b) with a < b, else ``_bisect`` raises ValueError.
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
    values summed in linear space.  The error estimate is the summed gap
    plus 4 eps times the L1 sum, the rounding of the sum.  Returns
    ``converged=False`` when the split would pass ``MAX_PANELS`` panels,
    and at once, with a NaN value, when a panel's value is not finite:
    bisection cannot make an overflowed integrand finite.
    """
    _check_tol(tol)
    a, b = float(interval[0]), float(interval[1])
    edges = [a, *sorted({float(p) for p in breakpoints if a < p < b}), b]

    def weigh(job, part, first):
        values, log_w = part
        w = np.exp(log_w)
        # a panel's sum over each rule is w . f, one dot product per panel:
        # the same sum as on that panel alone
        return {}, np.concatenate([(w[:, None, rule] @ values[:, rule, None])[:, 0] for rule in _RULES], axis=1)

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
        # the panel sums and their total each round at about eps of the L1
        # sum, an error the gap does not see
        error = err_total + 4.0 * _EPS * abs_total
        return converged, np.array(err) > allowed / len(err), lambda: IntegralResult(math.fsum(fine), error, len(fine), converged)

    return _bisect(lambda t, counts: f(t), [(edges, ())], (a, b), float(end_exponent), (0.0,), weigh, settle)[0]


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
