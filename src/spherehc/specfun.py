"""Gegenbauer, Hermite and Jacobi polynomials: evaluation, roots, Gauss rules, Gamma helpers.

Every polynomial here is evaluated by one three-term recurrence,
P_k = (a_k x + c_k) P_{k-1} - b_k P_{k-2} with P_0 = 1 and P_{-1} = 0; the
families differ only in a_k, b_k and c_k, and c_k is nonzero only for Jacobi
polynomials with alpha != beta.  One pass can also sum a series
sum_k s_k P_k, and it returns P_{d-1} beside P_d for the root finders'
Newton step.  The loop writes every step into preallocated arrays, with
the operations of the plain expression in its order, so it is bitwise the
plain loop.  One pass can also serve several degrees: with the points
grouped by degree, highest first, each step updates the prefix still below
its degree, so a point gets the values of a pass of its own degree.  P_k
lives in the array of k's parity, so a finished block is left where it was
computed, not copied out.

Rescale rule: |P_k| <= (|a_k| max|x| + |c_k| + |b_k|) max(|P_{k-1}|, |P_{k-2}|) bounds
each value before it is computed.  While the running product of these
factors stays below 1e300 the loop runs bare; when it would pass, each
point's values are divided by the power of two just above their magnitude
and the exponent is kept as a shift.  Division by a power of two is exact,
so a value that fits in a float is bitwise the bare loop's, and
log-magnitudes stay finite far beyond float overflow.

The Gegenbauer roots and every Gauss rule share one node builder
(``_jacobi_nodes``).  The roots of C_d^(lam) are the nodes of the d-point
Gauss-Jacobi rule of alpha = beta = lam - 1/2: Golub-Welsch eigenvalues
(Math. Comp. 23, 1969; numpy.linalg.eigvalsh) of a floor(d/2)-row Jacobi
matrix (DLMF 18.7.15-16) give the nonnegative half, which takes one guarded
Newton step on the full recurrence and is mirrored; the Hermite roots start
from half-size Laguerre matrices (DLMF 18.7.19-20).  A Jacobi matrix is built
from its recurrence's own a_k, b_k and c_k, and a rule's log weights come
from the pass that polished its nodes, so no other library is needed.
Expanded coefficient forms exist only as exact-rational oracles in the test
suite.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GegenbauerSpec",
    "HermiteSpec",
    "gegenbauer_eval",
    "gegenbauer_eval_scaled",
    "gegenbauer_series",
    "hermite_eval",
    "hermite_log_abs",
    "gegenbauer_roots",
    "hermite_roots",
    "jacobi_rule_log",
    "log_beta",
    "c_lambda",
]

_LIMIT = 1e300
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GegenbauerSpec:
    """Identifies C_d^(lam) with lam > 0.  On the n-sphere, lam = (n - 1) / 2."""

    lam: float
    degree: int

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        object.__setattr__(self, "degree", _integer("degree", self.degree, 0))


@dataclass(frozen=True)
class HermiteSpec:
    """Probabilists' Hermite polynomial h_d (orthogonal under the standard Gaussian)."""

    degree: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _integer("degree", self.degree, 0))


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int (a numpy integer too); ValueError unless it is an integer of at least ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


def _recurrence(a, b, x, coeffs=None, c=None, blocks=None):
    """(P_d or sum_k coeffs[k] P_k, P_{d-1}, shift) for a_k = a[k-1], b_k = b[k-1].

    ``c`` holds the diagonal terms c_k = c[k-1] of P_k = (a_k x + c_k) P_{k-1}
    - b_k P_{k-2}; without it they are 0 and the pass is the plain one.  The
    true values are the returned ones times 2**shift; ``shift`` is the Python
    int 0 until a rescale fires, then an integer array like ``x``.  A series sum is at most
    2 max(1, sum|coeffs|) times the bound on the P_k, so its threshold is
    lowered by that factor.

    ``blocks`` (not with ``coeffs``), a list of (degree, count) pairs with
    the degrees descending and at least 1, says that the 1-d ``x`` holds
    count points of each degree in that order, and each point gets the
    values of its own degree; a_k, b_k and c_k must reach the first nonempty
    block's degree.  The points still below their degree are a prefix of
    ``x``, so each step updates a slice of it.  P_k always lives in the
    buffer of k's parity, so a finished block's P_d and P_{d-1} stay where
    they were computed, and one ``np.where`` per output picks them at the
    end; with one block the buffers are returned as they are.  The rescale
    bound is that of all points, so a rescale may fire at another step than
    in a pass of one block alone: log|P| then differs by a few ulps.
    """
    x = np.asarray(x, dtype=float)
    stops = []
    if blocks is not None:
        blocks = [(d, count) for d, count in blocks if count]
        if not blocks:
            return x.copy(), x.copy(), 0
        depth = blocks[0][0]
        a, b, c = a[:depth], b[:depth], None if c is None else c[:depth]
        # (degree, first point of that degree), the lowest degree last
        stops = list(zip([d for d, _ in blocks[1:]], itertools.accumulate(count for _, count in blocks)))
    prev = np.ones_like(x)
    if not a:
        return (prev if coeffs is None else coeffs[0] * prev), np.zeros_like(x), 0
    if c is None:
        c = [0.0] * len(a)
    # P_k lives in pair[k % 2]; without ``out``, a 0-d x would give scalars
    pair = prev, np.multiply(x, a[0], out=np.empty_like(x))
    cur, tmp = pair[1], np.empty_like(x)
    if c[0]:
        cur += c[0]
    acc = None
    limit = _LIMIT
    if coeffs is not None:
        acc = coeffs[0] * prev + coeffs[1] * cur
        csum = max(1.0, sum(map(abs, coeffs)))
        limit = _LIMIT / (2.0 * csum)
    top = float(np.abs(x).max(initial=0.0))
    bound = max(1.0, abs(a[0]) * top + abs(c[0]))
    shift = 0
    for k in range(1, len(a)):
        while stops and stops[-1][0] == k:
            # cur holds P_k: the points from ``start`` on are done
            start = stops.pop()[1]
            x, cur, prev, tmp = x[:start], cur[:start], prev[:start], tmp[:start]
        ak, bk, ck = a[k], b[k], c[k]
        factor = max(1.0, abs(ak) * top + abs(ck) + abs(bk))
        bound *= factor
        if bound > limit:
            size = np.maximum(np.abs(cur), np.abs(prev))
            if acc is not None:
                size = np.maximum(size, np.abs(acc) / csum)
            exponent = np.frexp(size)[1]
            np.ldexp(cur, -exponent, out=cur)
            np.ldexp(prev, -exponent, out=prev)
            if acc is not None:
                acc = np.ldexp(acc, -exponent)
            if isinstance(shift, int):
                shift = np.zeros_like(pair[0], dtype=exponent.dtype)
            live = shift[: len(x)] if x.ndim else shift
            live += exponent
            bound = factor
        np.multiply(x, ak, tmp)
        if ck:
            tmp += ck
        tmp *= cur
        prev *= bk
        np.subtract(tmp, prev, prev)
        prev, cur = cur, prev
        if acc is not None:
            acc = acc + coeffs[k + 1] * cur
    if blocks is not None and len(blocks) > 1:
        odd = np.repeat([d % 2 == 1 for d, _ in blocks], [count for _, count in blocks])
        cur, prev = np.where(odd, pair[1], pair[0]), np.where(odd, pair[0], pair[1])
    return (cur if acc is None else acc), prev, shift


def _gegenbauer_ab(lam: float, d: int) -> tuple[list[float], list[float]]:
    ks = range(1, d + 1)
    return [2.0 * (lam + (k - 1)) / k for k in ks], [(k + 2.0 * lam - 2.0) / k for k in ks]


def _hermite_ab(d: int) -> tuple[list[float], list[float]]:
    return [1.0] * d, [k - 1.0 for k in range(1, d + 1)]


def _scaled_ab(lam: float, d: int) -> tuple[list[float], list[float]]:
    ks = range(1, d + 1)
    # a_1 = 1 exactly, so G_1 = s; (1 + lam - 1) / lam can round away from 1
    a = [(k + lam - 1.0) / lam if k > 1 else 1.0 for k in ks]
    b = [(k - 1.0) * (k + 2.0 * lam - 2.0) / (2.0 * lam) for k in ks]
    return a, b


def _log_abs(ab, x, coeffs=None, blocks=None) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|P_d(x)| (or of the series sum_k coeffs[k] P_k) of a ``_recurrence``
    pass, with its shift added in log space; ``blocks`` as there."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    value, _, shift = _recurrence(*ab, x, coeffs, blocks=blocks)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(value))
    if not isinstance(shift, int):
        log_abs += _LN2 * shift
    return np.sign(value), log_abs


def _plain(result, like) -> float | np.ndarray:
    """The value of a ``_recurrence`` result as a float or an array like ``like``."""
    value, _, shift = result
    if not isinstance(shift, int):
        with np.errstate(over="ignore"):
            value = np.ldexp(value, shift)
    return float(value) if np.ndim(like) == 0 else value


def gegenbauer_eval(spec: GegenbauerSpec, x) -> float | np.ndarray:
    """Evaluate C_d^(lam)(x) by the three-term recurrence.

    d C_d = 2 (d + lam - 1) x C_{d-1} - (d + 2 lam - 2) C_{d-2},
    with C_0 = 1 and C_1 = 2 lam x.  Accepts a scalar or ndarray ``x``.
    """
    return _plain(_recurrence(*_gegenbauer_ab(spec.lam, spec.degree), x), x)


def gegenbauer_eval_scaled(spec: GegenbauerSpec, s) -> float | np.ndarray:
    """Evaluate (d! / (2 lam)^(d/2)) * C_d^(lam)(s / sqrt(2 lam)).

    The prefactor is folded into the recurrence (ratio form):

        G_d = ((d + lam - 1)/lam) s G_{d-1} - ((d-1)(d + 2 lam - 2)/(2 lam)) G_{d-2}

    so no factorial or power of lam is ever formed; values are exact up to
    rounding until they pass the float range, where they become inf.
    Converges to the Hermite value h_d(s) as lam -> inf.  No norm uses it; it
    stays because the benchmark's tracer (``benchmarks/spans.py``) wraps it by name.
    """
    return _plain(_recurrence(*_scaled_ab(spec.lam, spec.degree), s), s)


def gegenbauer_series(lam: float, coeffs, x) -> float | np.ndarray:
    """Evaluate sum_k coeffs[k] * C_k^(lam)(x) in a single recurrence pass."""
    coeffs = np.asarray(coeffs, dtype=float).tolist()
    return _plain(_recurrence(*_gegenbauer_ab(lam, len(coeffs) - 1), x, coeffs), x)


def hermite_eval(spec: HermiteSpec, x) -> float | np.ndarray:
    """Evaluate the probabilists' Hermite polynomial h_d(x).

    Uses h_k = x h_{k-1} - (k-1) h_{k-2} with h_0 = 1, h_1 = x.
    """
    return _plain(_recurrence(*_hermite_ab(spec.degree), x), x)


def hermite_log_abs(spec: HermiteSpec, y) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|h_d(y)| as arrays matching ``y``, finite far beyond float overflow.

    The rescale shift is added in log space; needed for |h_d|^p integrands at
    large degree.
    """
    return _log_abs(_hermite_ab(spec.degree), y)


def _series_roots(lam: float, coeffs) -> tuple[float, ...]:
    """The real roots in (-1, 1) of u = sum_k coeffs[k] C_k^(lam), sorted.

    They are the real eigenvalues of u's comrade matrix (Barnett, Linear
    Algebra Appl. 12, 1975): with v = (C_0, ..., C_{d-1}), the recurrence
    x C_{k-1} = (C_k + b_k C_{k-2}) / a_k reads x v = T v + (C_d / a_d) e_d
    for a tridiagonal T, and where u = 0, C_d = -sum_{k<d} coeffs[k] C_k /
    coeffs[d].  LAPACK gives a real eigenvalue an imaginary part of exactly
    0; a double root can come out as a complex pair and is then not listed.
    """
    coeffs = [float(c) for c in coeffs]
    # a leading coefficient at most 1e-300 times the largest is dropped: its
    # comrade row could overflow, and the roots it adds lie far outside [-1, 1]
    top = max(map(abs, coeffs), default=0.0)
    while coeffs and abs(coeffs[-1]) <= 1e-300 * top:
        coeffs.pop()
    d = len(coeffs) - 1
    if d < 1:
        return ()
    a, b = map(np.array, _gegenbauer_ab(lam, d))
    matrix = np.zeros((d, d))
    matrix.flat[1 :: d + 1] = 1.0 / a[:-1]
    matrix.flat[d :: d + 1] = b[1:] / a[1:]
    matrix[-1] -= np.array(coeffs[:-1]) / (coeffs[-1] * a[-1])
    roots = np.linalg.eigvals(matrix).tolist()
    return tuple(sorted({x.real for x in roots if x.imag == 0.0 and -1.0 < x.real < 1.0}))


def _jacobi_matrix(a, b, c=None) -> np.ndarray:
    """The recurrence P_k = (a_k x + c_k) P_{k-1} - b_k P_{k-2} (lists of floats) as its Jacobi matrix.

    Symmetric tridiagonal, lower half filled: diagonal -c_k / a_k (zero when
    ``c`` is None) and off-diagonal sqrt(b_{k+1} / (a_k a_{k+1})).  Its
    eigenvalues are the roots of P_d (Golub and Welsch, Math. Comp. 23, 1969).
    """
    count = len(a)
    matrix = np.zeros((count, count))
    if c is not None:
        matrix.flat[:: count + 1] = [-ck / ak for ak, ck in zip(a, c)]
    matrix.flat[count :: count + 1] = [math.sqrt(bk / (ak * an)) for ak, an, bk in zip(a, a[1:], b[1:])]
    return matrix


def _newton_caps(nodes, lo: float, hi: float) -> np.ndarray:
    """45% of each ascending node's gap to its nearest neighbor, ``lo`` and ``hi`` beyond the ends, so steps cannot cross."""
    edges = np.concatenate(([lo], nodes, [hi]))
    gaps = edges[1:] - edges[:-1]
    return 0.45 * np.minimum(gaps[:-1], gaps[1:])


def _newton_step(value, slope, cap) -> np.ndarray:
    """The guarded Newton step -P_d / P_d' within +-cap; a vanishing derivative would mean a multiple root."""
    if not slope.all():
        raise ArithmeticError("multiple root detected; Jacobi-matrix eigenvalues are simple")
    return np.maximum(np.minimum(-value / slope, cap), -cap)


def _gegenbauer_roots(lam: float, degrees) -> list[tuple[float, ...]]:
    """``gegenbauer_roots`` for each degree in ``degrees`` (descending, each >= 1), in one ``_jacobi_nodes`` pass."""
    x, step, sizes, _ = _jacobi_nodes(degrees, lam - 0.5, lam - 0.5)
    upper = (x + step).tolist()
    out, end = [], 0
    for d, count in zip(degrees, sizes):
        half = upper[end : end + count]
        end += count
        out.append((*(-r for r in reversed(half[d % 2 :])), *half))
    return out


def _block_log_sum_exp(terms: np.ndarray, sizes, size=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Per block of ``sizes`` consecutive entries of ``terms``: log sum exp(terms), and the mean
    of ``size`` weighted by each term's share of that sum (None without ``size``).

    Each block is reduced alone (``reduceat``), so its sums are bitwise
    those of the block by itself.  A term of -inf has no share, and its size
    counts as 0.
    """
    starts = np.cumsum([0, *sizes[:-1]])
    top = np.maximum.reduceat(terms, starts)
    scaled = np.exp(terms - np.repeat(top, sizes))
    mass = np.add.reduceat(scaled, starts)
    if size is not None:
        size = np.add.reduceat(scaled * np.where(np.isfinite(size), size, 0.0), starts) / mass
    return top + np.log(mass), size


def gegenbauer_roots(spec: GegenbauerSpec) -> tuple[float, ...]:
    """All d roots of C_d^(lam) in (-1, 1), ascending and exactly antisymmetric: bitwise the
    nodes of the symmetric d-point Gauss-Jacobi rule of alpha = beta = lam - 1/2, whose
    nonnegative half starts from a floor(d/2)-row Jacobi matrix (``_jacobi_nodes``)."""
    return _gegenbauer_roots(spec.lam, [spec.degree])[0] if spec.degree else ()


def hermite_roots(spec: HermiteSpec) -> tuple[float, ...]:
    """All d roots of h_d on the real line, ascending and exactly antisymmetric, started as in ``_jacobi_nodes``.

    h_d(x) is x^(d % 2) times a multiple of L_k^(alpha)(x^2 / 2), k = d // 2, alpha = d % 2 - 1/2 (DLMF
    18.7.19-20): the nonnegative roots start from 0 for odd d and from sqrt(2 y), y the eigenvalues of the
    k x k Jacobi matrix of j L_j = (2j - 1 + alpha - x) L_{j-1} - (j - 1 + alpha) L_{j-2} (DLMF 18.9.13),
    take one guarded Newton step on h_d (h_d' = d h_{d-1}) and are mirrored."""
    d = spec.degree
    k, odd = divmod(d, 2)
    js, alpha = [float(j) for j in range(1, k + 1)], odd - 0.5
    laguerre = [-1.0 / j for j in js], [(j - 1.0 + alpha) / j for j in js], [(2.0 * j - 1.0 + alpha) / j for j in js]
    x = np.concatenate(([0.0] * odd, np.sqrt(2.0 * np.linalg.eigvalsh(_jacobi_matrix(*laguerre), UPLO="L")) if k else []))
    value, prev, _ = _recurrence(*_hermite_ab(d), x)
    upper = (x + _newton_step(value, d * prev, _newton_caps(x, -x[odd] if k else -math.inf, math.inf))).tolist()
    return (*(-r for r in reversed(upper[odd:])), *upper)


def _jacobi_abc(m: int, alpha: float, beta: float) -> tuple[list[float], list[float], list[float]]:
    """a_j, b_j and c_j, j = 1..m, of P_j^(alpha, beta) = (a_j x + c_j) P_{j-1} - b_j P_{j-2} (DLMF 18.9.2).

    a_1 = (s + 2)/2 and c_1 = (alpha - beta)/2 with s = alpha + beta, and
    for j >= 2 they follow from t = 2j + s and u = j (j + s).  As lists: at
    the sizes of roots and rules a loop is cheaper than a dozen numpy calls,
    and a float j keeps its arithmetic float-only (the values are the same).
    """
    s, diff = alpha + beta, alpha - beta
    a, b, c = [0.5 * (s + 2.0)], [0.0], [0.5 * diff]
    alpha1, beta1, tilt = alpha - 1.0, beta - 1.0, 0.5 * diff * s
    for j in map(float, range(2, m + 1)):
        t, u = 2.0 * j + s, j * (j + s)
        v = u * (t - 2.0)
        a.append((t - 1.0) * t / (2.0 * u))
        b.append((j + alpha1) * (j + beta1) * t / v)
        c.append(tilt * (t - 1.0) / v)
    return a, b, c


def jacobi_rule_log(count: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the count-point Gauss-Jacobi rule on [-1, 1]
    for the weight (1 - x)^alpha (1 + x)^beta, alpha, beta > -1; see ``_jacobi_rules``."""
    return _jacobi_rules([count], alpha, beta)[0]


def _jacobi_rules(counts, alpha: float, beta: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Nodes, ascending, and log weights of the m-point Gauss-Jacobi rule for each m in ``counts``
    (descending, each >= 1), for the weight (1 - x)^alpha (1 + x)^beta with finite alpha, beta > -1.

    The nodes come from ``_jacobi_nodes``.  The weights are Christoffel's,
    w ~ 1 / ((1 - x^2) P_m'^2) (Hale and Townsend, SIAM J. Sci. Comput. 35,
    2013), with P_m' carried to the polished node by one Taylor term (P_m''
    from DLMF 18.8.1) and 1 - x^2 taken there before the node is rounded:
    the rounded node put 580 eps into the last weight next to x = 1 (alpha =
    beta = 0, m = 76).  They are formed in log space with P_m' counted in
    powers of two of the least of its rule, the recurrence's shift included,
    so the heaviest log weights are small and keep a few eps (at alpha = 1e4
    log|P_m'| is near 700, whose ulp is 1e-13), and each rule is normalised
    to mu0 = 2^(s + 1) B(alpha + 1, beta + 1).  A rescale scales a point's
    values by a power of two, and steps and weights are ratios of values
    scaled alike, so a rule is bitwise the one built alone.
    """
    x, step, sizes, (value, slope, shift, span, m) = _jacobi_nodes(counts, alpha, beta)
    s, diff = alpha + beta, alpha - beta
    # (1 - x^2) P_m'' = (alpha - beta + (s + 2) x) P_m' - m (m + s + 1) P_m
    curvature = ((diff + (s + 2.0) * x) * slope - m * (m + s + 1.0) * value) / span
    nodes = x + step
    fraction, exponent = np.frexp(slope + curvature * step)
    exponent = exponent + shift
    starts = np.cumsum([0, *sizes]).tolist()
    exponent -= np.repeat(np.minimum.reduceat(exponent, starts[:-1]), sizes)
    log_w = -np.log(span - step * (2.0 * x + step)) - 2.0 * (np.log(np.abs(fraction)) + _LN2 * exponent)
    rules = [(nodes[i:j], log_w[i:j]) for i, j in zip(starts, starts[1:])]
    if alpha == beta:
        rules = [
            (np.concatenate((-x[m % 2 :][::-1], x)), np.concatenate((w[m % 2 :][::-1], w)))
            for (x, w), m in zip(rules, counts)
        ]
    shifts = _log_jacobi_mass(alpha, beta) - _block_log_sum_exp(np.concatenate([w for _, w in rules]), counts)[0]
    return [(x, w + shift) for (x, w), shift in zip(rules, shifts.tolist())]


def _jacobi_nodes(counts, alpha: float, beta: float):
    """The node stage of ``_jacobi_rules``: (x, step, sizes, (P_m, P_m', shift, 1 - x^2, m)).

    x holds the starts of each m-point rule's nodes, ascending, one rule
    after another as ``counts`` (descending, each >= 1) lists them, and
    ``sizes`` counts them; x + step are the nodes.  The rest come from one
    blocked ``_recurrence`` pass of P_m^(alpha, beta) (DLMF 18.9.2) at x,
    with m per start (a float for one rule).  With alpha == beta, P_m(x) is
    x^(m % 2) times a multiple of P_k^(alpha, m % 2 - 1/2)(2 x^2 - 1), k =
    m // 2 (DLMF 18.7.15-16), so the starts are the nonnegative nodes alone:
    0 when m is odd, then sqrt((1 + y) / 2) for the eigenvalues y of that
    k x k Jacobi matrix.  Otherwise they come from P_m's own matrix, a
    leading block of the largest.  1 + y loses relative accuracy where y is
    near -1, as every y is at large alpha, so each start gets one guarded
    Newton step on P_m, with s = alpha + beta and

        (2m + s)(1 - x^2) P_m' = m (alpha - beta - (2m + s) x) P_m + 2 (m + alpha)(m + beta) P_{m-1}

    (DLMF 18.9.16).
    """
    counts = [_integer("rule size", m, 1) for m in counts]
    if counts != sorted(counts, reverse=True) or not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
        raise ValueError(f"need descending rule sizes and finite exponents > -1, got {counts}, ({alpha}, {beta})")
    a, b, c = _jacobi_abc(counts[0], alpha, beta)
    parts, halves = [], {}
    for m in counts:
        if alpha != beta:
            x = np.linalg.eigvalsh(_jacobi_matrix(a[:m], b[:m], c[:m]), UPLO="L")
            parts.append((x, _newton_caps(x, -1.0, 1.0)))
            continue
        k, odd = divmod(m, 2)
        if odd not in halves:
            # this parity's largest half-size recurrence: the other matrices are its leading blocks
            halves[odd] = _jacobi_abc(max(k, 1), alpha, odd - 0.5)
        ha, hb, hc = halves[odd]
        x = np.sqrt(0.5 * (1.0 + np.linalg.eigvalsh(_jacobi_matrix(ha[:k], hb[:k], hc[:k]), UPLO="L"))) if k else []
        x = np.concatenate(([0.0], x)) if odd else x
        parts.append((x, _newton_caps(x, -x[odd] if k else -1.0, 1.0)))
    sizes = [len(x) for x, _ in parts]
    if len(parts) == 1:  # no concatenation: single cells' roots (the sufficiency workload)
        (x, cap), m, blocks = parts[0], float(counts[0]), None
    else:
        (x, cap), m = map(np.concatenate, zip(*parts)), np.repeat(np.array(counts, dtype=float), sizes)
        blocks = list(zip(counts, sizes))
    value, prev, shift = _recurrence(a, b, x, c=c, blocks=blocks)
    s, diff = alpha + beta, alpha - beta
    span = (1.0 - x) * (1.0 + x)
    tilt, last = m / (2.0 * m + s), 2.0 * (m + alpha) * (m + beta) / (2.0 * m + s)
    slope = ((diff * tilt - m * x) * value + last * prev) / span
    return x, _newton_step(value, slope, cap), sizes, (value, slope, shift, span, m)


def _log_jacobi_mass(alpha: float, beta: float) -> float:
    """ln mu0, mu0 = 2^(alpha + beta + 1) B(alpha + 1, beta + 1) = integral of (1 - x)^alpha (1 + x)^beta.

    With a = alpha + 1 and b = beta + 1 both at least 20, the power of two
    would cancel most of ln B, so Stirling's series is regrouped as
    (a - 1/2) log1p(delta) + (b - 1/2) log1p(-delta) + (1/2) ln(2 pi / (a + b))
    + S(a) + S(b) - S(a + b) with delta = (a - b) / (a + b).  At a = b it is
    ln B(1/2, a), where (a + b - 1) ln 2 + ln B was 7e-14 off at a = 750.5.
    """
    a, b = alpha + 1.0, beta + 1.0
    if min(a, b) < 20.0:
        return (a + b - 1.0) * _LN2 + log_beta(a, b)
    total = a + b
    delta = (a - b) / total
    return (
        (a - 0.5) * math.log1p(delta)
        + (b - 0.5) * math.log1p(-delta)
        + 0.5 * math.log(2.0 * math.pi / total)
        + _stirling_tail(a)
        + _stirling_tail(b)
        - _stirling_tail(total)
    )


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0, without cancelling lgamma values.

    With both arguments below 20 the Gamma ratio is formed directly.  Above,
    each ln Gamma is Stirling's series and the logarithms of the ratios are
    taken with log1p: for a <= b,

        ln B = ln Gamma(a) - (b - 1/2) log1p(a/b) - a ln(a + b) + a + S(b) - S(a + b)

    when a < 20, else (1/2) ln(2 pi / (a + b)) - (a - 1/2) log1p(b/a)
    - (b - 1/2) log1p(a/b) + S(a) + S(b) - S(a + b), where S is the
    Stirling tail.  The terms do not cancel, so the result keeps a few eps
    of its size; a difference of lgamma values is 2.6e-13 off at
    (1, 500.5).
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"log_beta needs positive arguments, got ({a}, {b})")
    a, b = min(a, b), max(a, b)
    if b < 20.0:
        return math.log(math.gamma(a) * math.gamma(b) / math.gamma(a + b))
    total = a + b
    tail = _stirling_tail(b) - _stirling_tail(total)
    if a < 20.0:
        return math.lgamma(a) - (b - 0.5) * math.log1p(a / b) - a * math.log(total) + a + tail
    return (
        0.5 * math.log(2.0 * math.pi / total)
        - (a - 0.5) * math.log1p(b / a)
        - (b - 0.5) * math.log1p(a / b)
        + _stirling_tail(a)
        + tail
    )


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), through the z^-7 term; within 1e-15 for z >= 20."""
    w = 1.0 / (z * z)
    return (1 / 12 - (1 / 360 - (1 / 1260 - w / 1680) * w) * w) / z


def c_lambda(lam: float) -> float:
    """Normalizing constant of the Gegenbauer weight on [-1, 1].

    c_lam = Gamma(lam + 1) / (Gamma(1/2) Gamma(lam + 1/2)) = 1 / B(1/2, lam + 1/2),
    making c_lam (1 - t^2)^(lam - 1/2) dt a probability measure.  It is
    exp(-log_beta(1/2, lam + 1/2)), within 2e-15 in log up to lam = 1e5; a
    difference of lgamma values loses about 1e-13 at lam = 500.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return math.exp(-log_beta(0.5, lam + 0.5))
