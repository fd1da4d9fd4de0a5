"""Gegenbauer, Hermite and Jacobi polynomials: evaluation, roots, Gauss rules, Gamma helpers.

Every polynomial here is evaluated by one three-term recurrence,
P_k = (a_k x + c_k) P_{k-1} - b_k P_{k-2} with P_0 = 1 and P_{-1} = 0; the
families differ only in a_k, b_k and c_k, and c_k is nonzero only for Jacobi
polynomials with alpha != beta.  One pass can also sum a series
sum_k s_k P_k, and it returns P_{d-1} beside P_d for the root finders'
Newton step.  The loop writes every step into preallocated arrays, with
the operations of the plain expression in its order, so it is bitwise the
plain loop.

Rescale rule: |P_k| <= (|a_k| max|x| + |c_k| + |b_k|) max(|P_{k-1}|, |P_{k-2}|) bounds
each value before it is computed.  While the running product of these
factors stays below 1e300 the loop runs bare; when it would pass, each
point's values are divided by the power of two just above their magnitude
and the exponent is kept as a shift.  Division by a power of two is exact,
so a value that fits in a float is bitwise the bare loop's, and
log-magnitudes stay finite far beyond float overflow.

Roots are Golub-Welsch eigenvalues (Math. Comp. 23, 1969) of the Jacobi
matrix built from the same a_k, b_k and c_k (numpy.linalg.eigvalsh), polished
by one guarded Newton step on that recurrence, so a family's matrix and its
Newton step cannot disagree.  Gauss-Jacobi rules, Gauss-Legendre among them,
take their nodes the same way and their weights, in log space, from the same
pass (``jacobi_rule_log``), so no other library is needed.  Expanded
coefficient forms exist only as exact-rational oracles in the test suite.
"""

from __future__ import annotations

import math
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
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


@dataclass(frozen=True)
class HermiteSpec:
    """Probabilists' Hermite polynomial h_d (orthogonal under the standard Gaussian)."""

    degree: int

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


def _recurrence(a, b, x, coeffs=None, c=None):
    """(P_d or sum_k coeffs[k] P_k, P_{d-1}, shift) for a_k = a[k-1], b_k = b[k-1].

    ``c`` holds the diagonal terms c_k = c[k-1] of P_k = (a_k x + c_k) P_{k-1}
    - b_k P_{k-2}; without it they are 0 and the pass is the plain one.  The
    true values are the returned ones times 2**shift; ``shift`` is the Python
    int 0 unless a rescale fired.  A series sum is at most
    2 max(1, sum|coeffs|) times the bound on the P_k, so its threshold is
    lowered by that factor.
    """
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if not a:
        return (prev if coeffs is None else coeffs[0] * prev), np.zeros_like(x), 0
    if c is None:
        c = [0.0] * len(a)
    # every step writes into these arrays; without ``out``, a 0-d x would give scalars
    cur, buf = np.multiply(x, a[0], out=np.empty_like(x)), np.empty_like(x)
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
            shift = shift + exponent
            bound = factor
        np.multiply(x, ak, out=buf)
        if ck:
            buf += ck
        buf *= cur
        prev *= bk
        buf -= prev
        prev, cur, buf = cur, buf, prev
        if acc is not None:
            acc = acc + coeffs[k + 1] * cur
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


def _log_abs(ab, x, coeffs=None) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|P_d(x)| (or of the series sum_k coeffs[k] P_k) of a ``_recurrence``
    pass, with its shift added in log space."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    value, _, shift = _recurrence(*ab, x, coeffs)
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
    """The recurrence P_k = (a_k x + c_k) P_{k-1} - b_k P_{k-2} as its Jacobi matrix.

    Symmetric tridiagonal, lower half filled: diagonal -c_k / a_k (zero when
    ``c`` is None) and off-diagonal sqrt(b_{k+1} / (a_k a_{k+1})).  Its
    eigenvalues are the roots of P_d (Golub and Welsch, Math. Comp. 23, 1969).
    """
    count, a = len(a), np.array(a)
    matrix = np.zeros((count, count))
    if c is not None:
        matrix.flat[:: count + 1] = -np.array(c) / a
    matrix.flat[count :: count + 1] = np.sqrt(np.array(b[1:]) / (a[:-1] * a[1:]))
    return matrix


def _golub_welsch(a, b, c, derivative, lo: float, hi: float):
    """Eigenvalues of P_d's Jacobi matrix and one guarded Newton step on P_d's recurrence.

    ``derivative(t, P_d, P_{d-1})`` gives P_d' from the pass that evaluates
    P_d.  Steps are capped at 45% of the gap to the nearest neighbor (or
    ``lo``/``hi``) so roots cannot cross; a vanishing derivative would mean a
    multiple root.  Returns the eigenvalues in ascending order, the steps, and
    P_d, P_d' and the shift at the eigenvalues.
    """
    nodes = np.linalg.eigvalsh(_jacobi_matrix(a, b, c), UPLO="L")
    value, prev, shift = _recurrence(a, b, nodes, c=c)
    slope = derivative(nodes, value, prev)
    if (slope == 0.0).any():
        raise ArithmeticError("multiple root detected; Jacobi-matrix eigenvalues are simple")
    edges = np.concatenate(([lo], nodes, [hi]))
    gaps = edges[1:] - edges[:-1]
    cap = 0.45 * np.minimum(gaps[:-1], gaps[1:])
    return nodes, np.maximum(np.minimum(-value / slope, cap), -cap), value, slope, shift


def _symmetric_roots(ab, derivative, lo: float, hi: float) -> tuple[float, ...]:
    """All d roots, ascending, of an even or odd P_d with recurrence ``ab``, averaged with their mirror images."""
    nodes, step, *_ = _golub_welsch(*ab, None, derivative, lo, hi)
    roots = nodes + step
    return tuple((0.5 * (roots - roots[::-1])).tolist())


def gegenbauer_roots(spec: GegenbauerSpec) -> tuple[float, ...]:
    """All d roots of C_d^(lam) in (-1, 1), via the Jacobi matrix of its recurrence.

    The Newton derivative is (1 - t^2) C_d' = (d + 2 lam - 1) C_{d-1} - d t C_d
    (DLMF 18.9).
    """
    lam, d = spec.lam, spec.degree
    derivative = lambda t, c, c1: ((d + 2.0 * lam - 1.0) * c1 - d * t * c) / (1.0 - t * t)
    return _symmetric_roots(_gegenbauer_ab(lam, d), derivative, -1.0, 1.0)


def hermite_roots(spec: HermiteSpec) -> tuple[float, ...]:
    """All d roots of h_d on the real line, via the Jacobi matrix of its recurrence.

    The Newton derivative is h_d' = d h_{d-1}.
    """
    d = spec.degree
    return _symmetric_roots(_hermite_ab(d), lambda t, h, h1: d * h1, -math.inf, math.inf)


def jacobi_rule_log(count: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the count-point Gauss-Jacobi rule on [-1, 1].

    The weight is (1 - x)^alpha (1 + x)^beta with alpha, beta > -1.  Nodes
    are the eigenvalues of the Jacobi matrix, polished by one Newton step on
    the recurrence of P_m = P_m^(alpha, beta) (DLMF 18.9.2, which has a
    diagonal term when alpha != beta), with s = alpha + beta and

        (2m + s)(1 - x^2) P_m' = m (alpha - beta - (2m + s) x) P_m + 2 (m + alpha)(m + beta) P_{m-1}

    (DLMF 18.9.16) from the same pass.  The weights are
    w_j ~ 1 / ((1 - x_j^2) P_m'(x_j)^2) (Hale and Townsend, SIAM J. Sci.
    Comput. 35, 2013), with P_m' carried to the polished node by one Taylor
    term whose P_m'' comes from the Jacobi equation (DLMF 18.8.1).  They are
    formed in log space, the recurrence's shift included, and normalised to
    mu0 = 2^(s + 1) B(alpha + 1, beta + 1), so they stay finite where mu0
    or a weight passes the float range.  With alpha == beta, nodes and
    weights are made exactly symmetric.
    """
    if count < 1:
        raise ValueError(f"rule size must be >= 1, got {count}")
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"Jacobi exponents must exceed -1, got ({alpha}, {beta})")
    m, s, diff = count, alpha + beta, alpha - beta
    # P_j = (a_j x + c_j) P_{j-1} - b_j P_{j-2}: a_1 = (s + 2)/2, c_1 = (alpha - beta)/2,
    # and for j >= 2 with t = 2j + s, u = j (j + s) (DLMF 18.9.2)
    j = np.arange(2.0, m + 1)
    t = 2.0 * j + s
    u = j * (j + s)
    v = u * (t - 2.0)
    a, c = np.empty(m), np.empty(m)
    a[0], c[0] = 0.5 * (s + 2.0), 0.5 * diff
    a[1:] = (t - 1.0) * t / (2.0 * u)
    c[1:] = (0.5 * diff * s) * (t - 1.0) / v
    b = (j + (alpha - 1.0)) * (j + (beta - 1.0)) * t / v
    tilt, last = m / (2.0 * m + s), 2.0 * (m + alpha) * (m + beta) / (2.0 * m + s)

    def derivative(x, p, p1):
        return ((diff * tilt - m * x) * p + last * p1) / ((1.0 - x) * (1.0 + x))

    x, step, value, slope, shift = _golub_welsch(a.tolist(), [0.0, *b.tolist()], c.tolist(), derivative, -1.0, 1.0)
    # P_m' at x + step; (1 - x^2) P_m'' = (alpha - beta + (s + 2) x) P_m' - m (m + s + 1) P_m
    curvature = ((diff + (s + 2.0) * x) * slope - m * (m + s + 1.0) * value) / ((1.0 - x) * (1.0 + x))
    nodes = x + step
    log_w = -np.log1p(-nodes) - np.log1p(nodes) - 2.0 * np.log(np.abs(slope + curvature * step))
    if not isinstance(shift, int):
        log_w -= 2.0 * _LN2 * shift
    if alpha == beta:
        nodes = 0.5 * (nodes - nodes[::-1])
        log_w = 0.5 * (log_w + log_w[::-1])
    top = float(log_w.max())
    return nodes, log_w + (_log_jacobi_mass(alpha, beta) - top - math.log(float(np.exp(log_w - top).sum())))


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
