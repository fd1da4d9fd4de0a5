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


def hermite_power_moment(d: int, q: int) -> int:
    """E[h_d^q] under the standard Gaussian for even q, an exact integer.

    h_d = sum_j (-1)^j d! / (j! (d - 2j)! 2^j) x^(d - 2j) has integer
    coefficients, so its q-th power is taken on the integers, and each
    monomial x^(2i) has the mean E[y^(2i)] = (2i - 1)!!, kept as a running
    product.
    """
    if q < 0 or q % 2:
        raise ValueError(f"need an even q >= 0, got {q}")
    base = [
        (d - 2 * j, (-1) ** j * math.factorial(d) // (math.factorial(j) * math.factorial(d - 2 * j) * 2**j))
        for j in range(d // 2 + 1)
    ]
    poly = [1]
    for _ in range(q):
        nxt = [0] * (len(poly) + d)
        for i, ci in enumerate(poly):
            if ci:
                for k, ck in base:
                    nxt[i + k] += ci * ck
        poly = nxt
    total, moment = 0, 1
    for deg in range(0, len(poly), 2):
        if deg:
            moment *= deg - 1
        total += poly[deg] * moment
    return total


def chebyshev_u_fourth_moment(d: int) -> int:
    """E[U_d^4] = d + 1 under c_1 (1 - t^2)^(1/2) dt, the S^3 weight, at any d.

    On S^3, lam = 1 and C_d^(1) is the Chebyshev U_d.  The product rule
    U_m U_n = sum_{k=0}^{min(m, n)} U_{m+n-2k} gives U_d^2 = sum_{k<=d} U_{2k},
    and the U_k are orthonormal under the normalized weight.  So E[U_d^2] =
    E[U_0] = 1 and E[U_d^4] = sum_{k<=d} E[U_{2k}^2] = d + 1, exactly.
    """
    return d + 1


def sphere_power_integral_exact(lam: Fraction, d: int, p_even: int) -> Fraction:
    """Exact integral of C_d^(lam)(t)^p against the normalized weight, even p.

    C_d^(lam) = (1/D) sum_k a_k t^k with integer a_k over one common
    denominator D, so its p-th power is taken on the integers.  The even
    moments E[t^(2i)] under c_lam (1 - t^2)^(lam - 1/2) dt follow by the
    running product m_{2i} = m_{2i-2} (2i - 1) / (2 lam + 2i), m_0 = 1.
    """
    coeffs = {
        d - 2 * j: Fraction((-1) ** j)
        * rising(lam, d - j)
        / (math.factorial(j) * math.factorial(d - 2 * j))
        * 2 ** (d - 2 * j)
        for j in range(d // 2 + 1)
    }
    denom = math.lcm(*(c.denominator for c in coeffs.values()))
    base = [(k, c.numerator * (denom // c.denominator)) for k, c in coeffs.items()]
    poly = [1]
    for _ in range(p_even):
        nxt = [0] * (len(poly) + d)
        for i, ci in enumerate(poly):
            if ci:
                for k, ck in base:
                    nxt[i + k] += ci * ck
        poly = nxt
    # C_d has the parity of d, so an even power has only even degrees
    total, moment = Fraction(0), Fraction(1)
    for deg in range(0, len(poly), 2):
        if deg:
            moment *= Fraction(deg - 1) / (2 * lam + deg)
        total += poly[deg] * moment
    return total / denom**p_even


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


def zonal_power_integral_mp(n: int, d: int, p: float, roots, dps: int = 20) -> float:
    """log of the integral of |C_d^(lam)(t)|^p c_lam (1 - t^2)^(lam - 1/2) over [-1, 1], lam = (n - 1)/2, in mpmath.

    For real p >= 1, where the Fraction oracle needs an even p; checked to
    the last digit against the package at (n, d, p) = (1000, 30, 1.5), where
    20 and 30 digits agree.  The integrand is even, so this integrates
    exp(phi - phi(t*)) over [0, 1] with
    phi = p log|C_d| + (lam - 1/2) log(1 - t^2), C_d from its three-term
    recurrence, and doubles it.  Between two roots, and past the outermost
    root r, phi is concave.  Past r its peak t* is found by bisection on
    phi', and with sigma = 1/sqrt(-phi''(t*)) the interval [r, 1] is split
    at t* and t* +- 8 sigma, t* +- 40 sigma.  An interval between roots is
    dropped when phi's tangent at its midpoint stays below phi(t*) - 100
    there: concave, phi lies below that tangent, so the interval holds at
    most exp(phi(t*) - 100).  ``roots`` (floats; those of C_d in (0, 1)
    suffice) only place the splits.  Each piece is an ``mp.quad`` at
    ``dps`` digits: tanh-sinh when p is not an even integer and the piece
    has a root at an end, where |t - r|^p has a kink that Gauss-Legendre does not
    resolve (5.7e-12 off at (1000, 30, 1.5)), else Gauss-Legendre.
    """
    from mpmath import mp

    with mp.workdps(dps):
        lam, p, half = mp.mpf(n - 1) / 2, mp.mpf(p), mp.mpf(1) / 2
        steps = [(2 * (k + lam - 1) / k, (k + 2 * lam - 2) / k) for k in range(2, d + 1)]

        def phi(t):
            prev, cur = mp.mpf(1), 2 * lam * t
            for a, b in steps:
                prev, cur = cur, a * t * cur - b * prev
            return p * mp.log(abs(cur)) + (lam - half) * mp.log(1 - t * t)

        def slope(t):  # phi'(t), with C_d' from the differentiated recurrence
            prev, cur, dprev, dcur = mp.mpf(1), 2 * lam * t, mp.mpf(0), 2 * lam
            for a, b in steps:
                prev, cur, dprev, dcur = cur, a * t * cur - b * prev, dcur, a * (cur + t * dcur) - b * dprev
            return p * dcur / cur - (2 * lam - 1) * t / (1 - t * t)

        inner = [mp.mpf(float(r)) for r in roots if r > 0]
        outer = inner[-1] if inner else mp.mpf(0)
        lo, hi = outer, mp.mpf(1)
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        peak = (lo + hi) / 2
        h = mp.mpf(10) ** (-dps // 3)
        sigma = 1 / mp.sqrt((slope(peak - h) - slope(peak + h)) / (2 * h))
        top = phi(peak)
        pieces = [
            (a, b) for a, b in zip([mp.mpf(0)] + inner[:-1], inner)
            if phi((a + b) / 2) + abs(slope((a + b) / 2)) * (b - a) / 2 > top - 100
        ]
        cuts = (peak + k * sigma for k in (-40, -8, 0, 8, 40))
        ends = sorted({outer, mp.mpf(1), *(c for c in cuts if outer < c < 1)})
        pieces += zip(ends[:-1], ends[1:])
        # |t - r|^p is analytic at a root r only for an even integer p
        kinks = set(inner) | ({mp.mpf(0)} if d % 2 else set()) if p % 2 else set()
        total = mp.fsum(
            mp.quad(lambda t: mp.exp(phi(t) - top), piece, method="tanh-sinh" if kinks & set(piece) else "gauss-legendre")
            for piece in pieces
        )
        log_c = mp.loggamma(lam + 1) - mp.loggamma(lam + half) - mp.log(mp.pi) / 2
        return float(mp.log(2 * total) + top + log_c)
