"""Gegenbauer and probabilists' Hermite polynomials: evaluation, roots, Gamma helpers.

Every polynomial here is evaluated by one three-term recurrence,
P_k = a_k x P_{k-1} - b_k P_{k-2} with P_0 = 1 and P_{-1} = 0; the families
differ only in a_k and b_k.  One pass can also sum a series sum_k c_k P_k,
and it returns P_{d-1} beside P_d for the root finders' Newton step.

Rescale rule: |P_k| <= (|a_k| max|x| + |b_k|) max(|P_{k-1}|, |P_{k-2}|) bounds
each value before it is computed.  While the running product of these
factors stays below 1e300 the loop runs bare; when it would pass, each
point's values are divided by the power of two just above their magnitude
and the exponent is kept as a shift.  Division by a power of two is exact,
so a value that fits in a float is bitwise the bare loop's, and
log-magnitudes stay finite far beyond float overflow.

Roots are Golub-Welsch eigenvalues (Math. Comp. 23, 1969) polished by one
guarded Newton step.  Expanded coefficient forms exist only as
exact-rational oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "SPHERE_INTERVAL",
    "REAL_LINE",
    "GegenbauerSpec",
    "HermiteSpec",
    "RootList",
    "gegenbauer_eval",
    "gegenbauer_eval_scaled",
    "gegenbauer_log_abs_scaled",
    "gegenbauer_series",
    "hermite_eval",
    "hermite_log_abs",
    "gegenbauer_roots",
    "hermite_roots",
    "log_gamma",
    "log_beta",
    "c_lambda",
]

SPHERE_INTERVAL = "sphere"
REAL_LINE = "real-line"

_LIMIT = 1e300
_LN2 = math.log(2.0)
_HALF_LOG_PI = 0.5 * math.log(math.pi)


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

    @classmethod
    def for_sphere(cls, n: int, degree: int) -> "GegenbauerSpec":
        if n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {n}")
        return cls((n - 1) / 2, degree)


@dataclass(frozen=True)
class HermiteSpec:
    """Probabilists' Hermite polynomial h_d (orthogonal under the standard Gaussian)."""

    degree: int

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


@dataclass(frozen=True)
class RootList:
    """Ordered real roots of a degree-d polynomial; used to split |P|^p integrands."""

    roots: tuple[float, ...]
    domain: str

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.roots, self.roots[1:])):
            raise ValueError("roots must be strictly increasing")


def _recurrence(a, b, x, coeffs=None):
    """(P_d or sum_k coeffs[k] P_k, P_{d-1}, shift) for a_k = a[k-1], b_k = b[k-1].

    The true values are the returned ones times 2**shift; ``shift`` is the
    Python int 0 unless a rescale fired.  A series sum is at most
    2 max(1, sum|c_k|) times the bound on the P_k, so its threshold is
    lowered by that factor.
    """
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if not a:
        return (prev if coeffs is None else coeffs[0] * prev), np.zeros_like(x), 0
    cur = a[0] * x
    acc = None
    limit = _LIMIT
    if coeffs is not None:
        acc = coeffs[0] * prev + coeffs[1] * cur
        csum = max(1.0, sum(map(abs, coeffs)))
        limit = _LIMIT / (2.0 * csum)
    top = float(np.max(np.abs(x), initial=0.0))
    bound = max(1.0, abs(a[0]) * top)
    shift = 0
    for k in range(1, len(a)):
        ak, bk = a[k], b[k]
        factor = max(1.0, abs(ak) * top + abs(bk))
        bound *= factor
        if bound > limit:
            size = np.maximum(np.abs(cur), np.abs(prev))
            if acc is not None:
                size = np.maximum(size, np.abs(acc) / csum)
            exponent = np.frexp(size)[1]
            cur, prev = np.ldexp(cur, -exponent), np.ldexp(prev, -exponent)
            if acc is not None:
                acc = np.ldexp(acc, -exponent)
            shift = shift + exponent
            bound = factor
        prev, cur = cur, ak * x * cur - bk * prev
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


def _log_abs(ab, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|P_d(x)| of a ``_recurrence`` pass, with its shift added in log space."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    value, _, shift = _recurrence(*ab, x)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(value)) + _LN2 * shift
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
    rounding until they pass the float range, where they become inf
    (``gegenbauer_log_abs_scaled`` stays finite there).
    Converges to the Hermite value h_d(s) as lam -> inf.
    """
    return _plain(_recurrence(*_scaled_ab(spec.lam, spec.degree), s), s)


def gegenbauer_log_abs_scaled(spec: GegenbauerSpec, s) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|G_d(s)| of ``gegenbauer_eval_scaled`` as arrays matching ``s``.

    The rescale shift is added in log space, so log|G_d| stays finite where
    G_d itself passes the float range (from d = 171 on S^2).
    """
    return _log_abs(_scaled_ab(spec.lam, spec.degree), s)


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


def _golub_welsch(off, a, b, derivative, lo: float, hi: float) -> tuple[float, ...]:
    """Jacobi-matrix eigenvalues polished by one Newton step, as +- pairs.

    ``derivative(t, P_d, P_{d-1})`` gives P_d' from the same pass.  Steps are
    capped at 45% of the gap to the nearest neighbor (or ``lo``/``hi``) so
    roots cannot cross; a vanishing derivative would mean a multiple root.
    """
    nodes = np.sort(eigh_tridiagonal(np.zeros(len(a)), off, eigvals_only=True))
    value, prev, _ = _recurrence(a, b, nodes)
    slope = derivative(nodes, value, prev)
    if np.any(slope == 0.0):
        raise ArithmeticError("multiple root detected; Gegenbauer/Hermite roots are simple")
    gaps = np.diff(np.concatenate(([lo], nodes, [hi])))
    cap = 0.45 * np.minimum(gaps[:-1], gaps[1:])
    nodes = nodes + np.clip(-value / slope, -cap, cap)
    return tuple((0.5 * (nodes - nodes[::-1])).tolist())


def gegenbauer_roots(spec: GegenbauerSpec) -> RootList:
    """All d roots of C_d^(lam) in (-1, 1), via the Jacobi-matrix eigenproblem.

    Off-diagonal entries are sqrt(k (k + 2 lam - 1) / (4 (k + lam)(k + lam - 1))).
    The Newton derivative is (1 - t^2) C_d' = (d + 2 lam - 1) C_{d-1} - d t C_d
    (DLMF 18.9).
    """
    lam, d = spec.lam, spec.degree
    if d < 2:
        return RootList((0.0,) * d, SPHERE_INTERVAL)
    k = np.arange(1.0, d)
    off = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    # Q_k = k! C_k has the same roots, and its coefficients are exact for
    # half-integer lam: Q_k = 2 (k + lam - 1) t Q_{k-1} - (k - 1)(k + 2 lam - 2) Q_{k-2}
    a = [2.0 * (k + lam - 1.0) for k in range(1, d + 1)]
    b = [(k - 1.0) * (k + 2.0 * lam - 2.0) for k in range(1, d + 1)]
    roots = _golub_welsch(
        off, a, b, lambda t, q, q1: d * ((d + 2.0 * lam - 1.0) * q1 - t * q) / (1.0 - t * t), -1.0, 1.0
    )
    return RootList(roots, SPHERE_INTERVAL)


def hermite_roots(spec: HermiteSpec) -> RootList:
    """All d roots of h_d on the real line, via the Jacobi matrix (off-diagonal sqrt(k)).

    The Newton derivative is h_d' = d h_{d-1}.
    """
    d = spec.degree
    if d < 2:
        return RootList((0.0,) * d, REAL_LINE)
    off = np.sqrt(np.arange(1.0, d))
    roots = _golub_welsch(off, *_hermite_ab(d), lambda t, h, h1: d * h1, -math.inf, math.inf)
    return RootList(roots, REAL_LINE)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma needs a positive argument, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError(f"log_beta needs positive arguments, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def c_lambda(lam: float) -> float:
    """Normalizing constant of the Gegenbauer weight on [-1, 1].

    c_lam = Gamma(lam + 1) / (Gamma(1/2) Gamma(lam + 1/2)) = 1 / B(1/2, lam + 1/2),
    making c_lam (1 - t^2)^(lam - 1/2) dt a probability measure.  A difference
    of lgamma values loses about 1e-13 at lam = 500, so the Gamma ratio is
    formed directly below lam = 20, and above it ln c_lam is
    ln(lam + 1)/2 + lam log1p(1/(2 lam + 1)) - 1/2 - ln(pi)/2 plus the
    difference of the Stirling series (through z^-7); both are within 1e-15.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if lam < 20.0:
        return math.gamma(lam + 1.0) / (math.gamma(lam + 0.5) * math.sqrt(math.pi))

    def stirling_tail(z: float) -> float:
        # ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), through the z^-7 term
        w = 1.0 / (z * z)
        return (1 / 12 - (1 / 360 - (1 / 1260 - w / 1680) * w) * w) / z

    log_c = 0.5 * math.log(lam + 1.0) + lam * math.log1p(0.5 / (lam + 0.5)) - 0.5 - _HALF_LOG_PI
    return math.exp(log_c + stirling_tail(lam + 1.0) - stirling_tail(lam + 0.5))
