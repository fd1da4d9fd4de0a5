"""Independent reference implementations used only by the test suite.

Exact-rational explicit sums and brute-force quadratures; these stay separate
from the production recurrence/adaptive-panel paths they validate.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def rising(lam: Fraction, m: int) -> Fraction:
    """(lam)_m = Gamma(lam + m) / Gamma(lam) as an exact rational."""
    out = Fraction(1)
    for i in range(m):
        out *= lam + i
    return out


def gegenbauer_explicit(lam: Fraction, d: int, x: Fraction) -> Fraction:
    """C_d^(lam)(x) from the explicit alternating sum, in exact arithmetic."""
    total = Fraction(0)
    for j in range(d // 2 + 1):
        coeff = (
            Fraction((-1) ** j)
            * rising(lam, d - j)
            / (math.factorial(j) * math.factorial(d - 2 * j))
        )
        total += coeff * (2 * x) ** (d - 2 * j)
    return total


def gegenbauer_scaled_explicit(lam: Fraction, d: int, s: Fraction) -> Fraction:
    """(d!/(2 lam)^(d/2)) C_d^(lam)(s / sqrt(2 lam)) collapses to a rational sum:

    sum_j (-1)^j ((lam)_{d-j} / lam^{d-j}) d! / (j! (d-2j)! 2^j) s^{d-2j}
    """
    total = Fraction(0)
    for j in range(d // 2 + 1):
        coeff = (
            Fraction((-1) ** j)
            * rising(lam, d - j)
            / lam ** (d - j)
            * math.factorial(d)
            / (math.factorial(j) * math.factorial(d - 2 * j) * 2**j)
        )
        total += coeff * s ** (d - 2 * j)
    return total


def hermite_explicit(d: int, x: Fraction) -> Fraction:
    """Probabilists' Hermite h_d(x) from the explicit sum, in exact arithmetic."""
    total = Fraction(0)
    for j in range(d // 2 + 1):
        coeff = (
            Fraction((-1) ** j)
            * math.factorial(d)
            / (math.factorial(j) * math.factorial(d - 2 * j) * 2**j)
        )
        total += coeff * x ** (d - 2 * j)
    return total


def simpson_composite(f, a: float, b: float, n: int = 1_000_000) -> float:
    """Composite Simpson rule with n panels (n made even)."""
    n += n % 2
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def gaussian_even_moment(k: int) -> int:
    """E[y^(2k)] = (2k - 1)!! under the standard Gaussian."""
    out = 1
    for i in range(1, 2 * k, 2):
        out *= i
    return out


def hermite_fourth_moment(d: int) -> int:
    """E[h_d^4] via the product linearization h_d^2 = sum_k C(d,k)^2 k! h_{2d-2k}."""
    return sum(
        (math.comb(d, k) ** 2 * math.factorial(k)) ** 2 * math.factorial(2 * d - 2 * k)
        for k in range(d + 1)
    )


def sphere_even_moment(lam: Fraction, two_j: int) -> Fraction:
    """E[t^(2j)] under the normalized weight c_lam (1 - t^2)^(lam - 1/2) dt."""
    j = two_j // 2
    out = Fraction(1)
    for i in range(1, j + 1):
        out *= Fraction(2 * i - 1, 1) / (2 * lam + 2 * i)
    return out


def sphere_power_integral_exact(lam: Fraction, d: int, p_even: int) -> Fraction:
    """Exact integral of C_d^(lam)(t)^p against the normalized weight, even p."""
    coeffs: dict[int, Fraction] = {}
    for j in range(d // 2 + 1):
        c = (
            Fraction((-1) ** j)
            * rising(lam, d - j)
            / (math.factorial(j) * math.factorial(d - 2 * j))
            * 2 ** (d - 2 * j)
        )
        coeffs[d - 2 * j] = c
    poly = {0: Fraction(1)}
    for _ in range(p_even):
        nxt: dict[int, Fraction] = {}
        for i, ci in poly.items():
            for k, ck in coeffs.items():
                nxt[i + k] = nxt.get(i + k, Fraction(0)) + ci * ck
        poly = nxt
    total = Fraction(0)
    for deg, c in poly.items():
        if deg % 2 == 0:
            total += c * sphere_even_moment(lam, deg)
    return total


def gauss_jacobi_mp(m: int, alpha: float, beta: float, guesses, dps: int = 40):
    """Nodes, log weights and log mu0 of the m-point Gauss-Jacobi rule in mpmath.

    Each node is Newton-polished from its guess on P_m^(alpha, beta), written
    out from DLMF 18.9.2; the weights come from the closed form
    2^(a+b+1) Gamma(m+a+1) Gamma(m+b+1) / (Gamma(m+a+b+1) m! (1 - x^2) P_m'(x)^2).
    """
    from mpmath import mp

    with mp.workdps(dps):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        s = a + b

        def values(x):
            prev, cur = mp.mpf(1), ((s + 2) * x + a - b) / 2
            for k in range(2, m + 1):
                t = 2 * k + s
                prev, cur = cur, (
                    (t - 1) * (t * (t - 2) * x + a * a - b * b) * cur - 2 * (k + a - 1) * (k + b - 1) * t * prev
                ) / (2 * k * (k + s) * (t - 2))
            slope = (m * (a - b - (2 * m + s) * x) * cur + 2 * (m + a) * (m + b) * prev) / ((2 * m + s) * (1 - x * x))
            return cur, slope

        nodes, log_w = [], []
        log_const = (s + 1) * mp.log(2) + mp.loggamma(m + a + 1) + mp.loggamma(m + b + 1) - mp.loggamma(m + s + 1)
        log_const -= mp.loggamma(m + 1)
        for guess in guesses:
            x = mp.mpf(float(guess))
            for _ in range(100):
                value, slope = values(x)
                x -= value / slope
                if abs(value / slope) < mp.mpf(2) ** (-3 * dps):
                    break
            _, slope = values(x)
            nodes.append(x)
            log_w.append(log_const - mp.log((1 - x * x) * slope * slope))
        log_mu0 = (s + 1) * mp.log(2) + mp.log(mp.beta(a + 1, b + 1))
        return nodes, log_w, log_mu0


def xlogx(u: np.ndarray) -> np.ndarray:
    """u log u elementwise, with 0 log 0 = 0."""
    u = np.asarray(u, dtype=float)
    return u * np.log(np.where(u > 0.0, u, 1.0))


def log_fraction(x: Fraction) -> float:
    """log x for a positive rational, accurate where x is far outside float range."""
    shift = x.numerator.bit_length() - x.denominator.bit_length()
    return math.log(float(x / Fraction(2) ** shift)) + shift * math.log(2.0)
