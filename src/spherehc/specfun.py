"""Gegenbauer and probabilists' Hermite polynomials: evaluation, roots, Gamma helpers.

Everything evaluates through three-term recurrences; expanded coefficient
forms exist only as exact-rational oracles in the test suite.
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

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)


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


def _as_scalar_or_array(out: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(out)
    return out


def gegenbauer_eval(spec: GegenbauerSpec, x) -> float | np.ndarray:
    """Evaluate C_d^(lam)(x) by the three-term recurrence.

    d C_d = 2 (d + lam - 1) x C_{d-1} - (d + 2 lam - 2) C_{d-2},
    with C_0 = 1 and C_1 = 2 lam x.  Accepts a scalar or ndarray ``x``.
    """
    lam, d = spec.lam, spec.degree
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    if d == 0:
        return _as_scalar_or_array(prev, x)
    cur = 2.0 * lam * xa
    for k in range(2, d + 1):
        prev, cur = cur, (2.0 * (k + lam - 1.0) * xa * cur - (k + 2.0 * lam - 2.0) * prev) / k
    return _as_scalar_or_array(cur, x)


def gegenbauer_eval_scaled(spec: GegenbauerSpec, s) -> float | np.ndarray:
    """Evaluate (d! / (2 lam)^(d/2)) * C_d^(lam)(s / sqrt(2 lam)).

    The prefactor is folded into the recurrence (ratio form):

        G_d = ((d + lam - 1)/lam) s G_{d-1} - ((d-1)(d + 2 lam - 2)/(2 lam)) G_{d-2}

    so no factorial or power of lam is ever formed; safe through d <= 100
    and lam <= 1e4.  Converges to the Hermite value h_d(s) as lam -> inf.
    """
    lam, d = spec.lam, spec.degree
    sa = np.asarray(s, dtype=float)
    prev = np.ones_like(sa)
    if d == 0:
        return _as_scalar_or_array(prev, s)
    cur = sa.astype(float).copy()
    for k in range(2, d + 1):
        prev, cur = cur, ((k + lam - 1.0) / lam) * sa * cur - (
            (k - 1.0) * (k + 2.0 * lam - 2.0) / (2.0 * lam)
        ) * prev
    return _as_scalar_or_array(cur, s)


def gegenbauer_series(lam: float, coeffs, x) -> float | np.ndarray:
    """Evaluate sum_k coeffs[k] * C_k^(lam)(x) in a single recurrence pass."""
    coeffs = np.asarray(coeffs, dtype=float)
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    acc = coeffs[0] * prev
    if len(coeffs) > 1:
        cur = 2.0 * lam * xa
        acc = acc + coeffs[1] * cur
        for k in range(2, len(coeffs)):
            prev, cur = cur, (2.0 * (k + lam - 1.0) * xa * cur - (k + 2.0 * lam - 2.0) * prev) / k
            acc = acc + coeffs[k] * cur
    return _as_scalar_or_array(acc, x)


def hermite_eval(spec: HermiteSpec, x) -> float | np.ndarray:
    """Evaluate the probabilists' Hermite polynomial h_d(x).

    Uses h_k = x h_{k-1} - (k-1) h_{k-2} with h_0 = 1, h_1 = x.
    """
    d = spec.degree
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    if d == 0:
        return _as_scalar_or_array(prev, x)
    cur = xa.astype(float).copy()
    for k in range(2, d + 1):
        prev, cur = cur, xa * cur - (k - 1.0) * prev
    return _as_scalar_or_array(cur, x)


def hermite_log_abs(spec: HermiteSpec, y) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|h_d(y)|, stable far beyond float overflow.

    The recurrence is rescaled whenever magnitudes pass 1e250 and the shed
    factor accumulates in log space; needed for |h_d|^p tail integrands at
    large degree.  Returns (sign, log_abs) arrays matching ``y``.
    """
    d = spec.degree
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    shift = np.zeros_like(ya)
    prev = np.ones_like(ya)
    if d == 0:
        return np.ones_like(ya), shift
    cur = ya.copy()
    for k in range(2, d + 1):
        prev, cur = cur, ya * cur - (k - 1.0) * prev
        big = np.maximum(np.abs(cur), np.abs(prev)) > _RESCALE
        if big.any():
            cur[big] /= _RESCALE
            prev[big] /= _RESCALE
            shift[big] += _LOG_RESCALE
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(cur)) + shift
    return np.sign(cur), log_abs


def _newton_polish(nodes: np.ndarray, f, fprime, lo: float, hi: float) -> np.ndarray:
    """One guarded Newton step from eigenvalue estimates.

    Steps are capped at 45% of the gap to the nearest neighbor (or domain
    edge) so roots cannot cross; a vanishing derivative would mean a multiple
    root, which these families do not have.
    """
    vals = f(nodes)
    der = fprime(nodes)
    if np.any(der == 0.0):
        raise ArithmeticError("multiple root detected; Gegenbauer/Hermite roots are simple")
    step = -vals / der
    padded = np.concatenate(([lo], nodes, [hi]))
    gap = np.minimum(np.diff(padded)[:-1], np.diff(padded)[1:])
    cap = 0.45 * gap
    step = np.clip(step, -cap, cap)
    return nodes + step


def gegenbauer_roots(spec: GegenbauerSpec) -> RootList:
    """All d roots of C_d^(lam) in (-1, 1), via the Jacobi-matrix eigenproblem.

    Off-diagonal entries are sqrt(k (k + 2 lam - 1) / (4 (k + lam)(k + lam - 1))).
    Eigenvalues are polished by one guarded Newton step and antisymmetrized so
    roots come in exact +- pairs (0 present iff d is odd).
    """
    lam, d = spec.lam, spec.degree
    if d == 0:
        return RootList((), SPHERE_INTERVAL)
    if d == 1:
        return RootList((0.0,), SPHERE_INTERVAL)
    k = np.arange(1.0, d)
    off = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    nodes = eigh_tridiagonal(np.zeros(d), off, eigvals_only=True)
    nodes = np.sort(nodes)
    dspec = GegenbauerSpec(lam + 1.0, d - 1)
    nodes = _newton_polish(
        nodes,
        lambda t: np.asarray(gegenbauer_eval(spec, t)),
        lambda t: 2.0 * lam * np.asarray(gegenbauer_eval(dspec, t)),
        -1.0,
        1.0,
    )
    nodes = 0.5 * (nodes - nodes[::-1])
    return RootList(tuple(nodes.tolist()), SPHERE_INTERVAL)


def hermite_roots(spec: HermiteSpec) -> RootList:
    """All d roots of h_d on the real line, via the Jacobi matrix (off-diagonal sqrt(k))."""
    d = spec.degree
    if d == 0:
        return RootList((), REAL_LINE)
    if d == 1:
        return RootList((0.0,), REAL_LINE)
    off = np.sqrt(np.arange(1.0, d))
    nodes = eigh_tridiagonal(np.zeros(d), off, eigvals_only=True)
    nodes = np.sort(nodes)
    span = float(nodes[-1] - nodes[0]) + 2.0
    dspec = HermiteSpec(d - 1)
    nodes = _newton_polish(
        nodes,
        lambda t: np.asarray(hermite_eval(spec, t)),
        lambda t: d * np.asarray(hermite_eval(dspec, t)),
        float(nodes[0]) - span,
        float(nodes[-1]) + span,
    )
    nodes = 0.5 * (nodes - nodes[::-1])
    return RootList(tuple(nodes.tolist()), REAL_LINE)


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
    making c_lam (1 - t^2)^(lam - 1/2) dt a probability measure.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return math.exp(-log_beta(0.5, lam + 0.5))
