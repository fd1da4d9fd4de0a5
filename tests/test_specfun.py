"""Polynomial evaluation, roots, and Gamma helpers against exact oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from spherehc import norms, specfun
from spherehc.specfun import GegenbauerSpec, HermiteSpec

from oracles import (
    gauss_jacobi_mp,
    gegenbauer_explicit,
    gegenbauer_scaled_explicit,
    hermite_explicit,
    log_fraction,
    rising,
)


# ---------------------------------------------------------------- evaluation

def test_gegenbauer_trivial_cases():
    assert specfun.gegenbauer_eval(GegenbauerSpec(3.7, 0), 0.7) == 1.0
    assert specfun.gegenbauer_eval(GegenbauerSpec(0.5, 1), 0.3) == pytest.approx(0.3, abs=1e-15)


def test_gegenbauer_degree_two_frozen():
    # exact-rational oracle: C_2^(1/2)(1/2) = 2*(1/2)*(3/2)*(1/4) - 1/2 = -1/8
    assert gegenbauer_explicit(Fraction(1, 2), 2, Fraction(1, 2)) == Fraction(-1, 8)
    got = specfun.gegenbauer_eval(GegenbauerSpec(0.5, 2), 0.5)
    assert got == pytest.approx(-0.125, rel=1e-14)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(6), Fraction(50)])
@pytest.mark.parametrize("d", [3, 7, 11, 15])
def test_recurrence_matches_explicit_sum(lam, d):
    spec = GegenbauerSpec(float(lam), d)
    for k in range(100):
        x = Fraction(2 * k, 99) - 1
        exact = float(gegenbauer_explicit(lam, d, x))
        got = specfun.gegenbauer_eval(spec, float(x))
        assert got == pytest.approx(exact, rel=1e-11, abs=1e-11)


def test_scaled_trivial_and_frozen():
    # degree 1 collapses to s for every lambda
    assert specfun.gegenbauer_eval_scaled(GegenbauerSpec(50.0, 1), 1.3) == pytest.approx(1.3, rel=1e-15)
    # exact-rational oracle gives -1 at (lam=1, d=2, s=0)
    assert gegenbauer_scaled_explicit(Fraction(1), 2, Fraction(0)) == Fraction(-1)
    assert specfun.gegenbauer_eval_scaled(GegenbauerSpec(1.0, 2), 0.0) == pytest.approx(-1.0, rel=1e-14)


@pytest.mark.parametrize("lam", [Fraction(3, 2), Fraction(10), Fraction(200)])
@pytest.mark.parametrize("d", [2, 5, 9])
def test_scaled_matches_explicit_sum(lam, d):
    spec = GegenbauerSpec(float(lam), d)
    for snum in (-27, -11, 0, 8, 30):
        s = Fraction(snum, 10)
        exact = float(gegenbauer_scaled_explicit(lam, d, s))
        assert specfun.gegenbauer_eval_scaled(spec, float(s)) == pytest.approx(exact, rel=1e-11, abs=1e-11)


def test_scaled_finite_at_documented_limit():
    # the docstring promises d <= 100 and lam <= 1e4; s = sqrt(2 lam) is t = 1,
    # where the value is largest on the sphere's interval
    lam, d = 10_000, 100
    spec = GegenbauerSpec(float(lam), d)
    edge = math.sqrt(2.0 * lam)
    values = specfun.gegenbauer_eval_scaled(spec, np.linspace(-edge, edge, 2001))
    assert np.all(np.isfinite(values))
    # at t = 1 the explicit sum has no cancellation: (2 lam)_d / (2 lam)^(d/2)
    exact = rising(Fraction(2 * lam), d) / Fraction(2 * lam) ** (d // 2)
    assert specfun.gegenbauer_eval_scaled(spec, edge) == pytest.approx(float(exact), rel=1e-11)


def test_scaled_approaches_hermite():
    # lim over lambda of the rescaled Gegenbauer value is h_d(s)
    assert specfun.gegenbauer_eval_scaled(GegenbauerSpec(1e6, 2), 2.0) == pytest.approx(3.0, rel=1e-5)
    for d in range(1, 9):
        h = HermiteSpec(d)
        for s in (-3.0, -1.3, 0.4, 2.2, 3.0):
            target = specfun.hermite_eval(h, s)
            diffs = [
                abs(specfun.gegenbauer_eval_scaled(GegenbauerSpec(lam, d), s) - target)
                for lam in (1e1, 1e2, 1e3, 1e4)
            ]
            for earlier, later in zip(diffs, diffs[1:]):
                assert later <= earlier * 1.05 + 1e-12


def test_hermite_frozen_values():
    assert specfun.hermite_eval(HermiteSpec(0), 5.0) == 1.0
    # oracle: h_2 = x^2 - 1, h_3 = x^3 - 3x
    assert hermite_explicit(2, Fraction(2)) == 3
    assert hermite_explicit(3, Fraction(1)) == -2
    assert specfun.hermite_eval(HermiteSpec(2), 2.0) == pytest.approx(3.0, rel=1e-15)
    assert specfun.hermite_eval(HermiteSpec(3), 1.0) == pytest.approx(-2.0, rel=1e-15)


@pytest.mark.parametrize("d", [4, 9, 14])
def test_hermite_recurrence_matches_explicit_sum(d):
    spec = HermiteSpec(d)
    for k in range(60):
        x = Fraction(k, 10) - 3
        exact = float(hermite_explicit(d, x))
        assert specfun.hermite_eval(spec, float(x)) == pytest.approx(exact, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 7, 24, 60])
def test_parity(d):
    gspec = GegenbauerSpec(2.5, d)
    hspec = HermiteSpec(d)
    xs = np.linspace(-1, 1, 41)
    sign = (-1) ** d
    np.testing.assert_allclose(
        specfun.gegenbauer_eval(gspec, -xs), sign * specfun.gegenbauer_eval(gspec, xs), rtol=1e-12, atol=1e-300
    )
    ys = np.linspace(-4, 4, 41)
    np.testing.assert_allclose(
        specfun.hermite_eval(hspec, -ys), sign * specfun.hermite_eval(hspec, ys), rtol=1e-12, atol=1e-300
    )


def test_hermite_log_abs_matches_direct():
    spec = HermiteSpec(12)
    y = np.linspace(-6, 6, 101)
    sign, log_abs = specfun.hermite_log_abs(spec, y)
    direct = specfun.hermite_eval(spec, y)
    np.testing.assert_allclose(sign * np.exp(log_abs), direct, rtol=1e-10, atol=1e-8)


def test_hermite_log_abs_beyond_overflow():
    # h_200(90) ~ 90^200 overflows linear doubles; the log path stays finite
    sign, log_abs = specfun.hermite_log_abs(HermiteSpec(200), np.array([90.0]))
    assert math.isfinite(log_abs[0])
    assert log_abs[0] > 200 * math.log(80)


def test_gegenbauer_series_is_linear_combination():
    lam = 1.5
    coeffs = [0.7, -0.2, 0.05, 0.3]
    xs = np.linspace(-1, 1, 17)
    expected = sum(
        c * np.asarray(specfun.gegenbauer_eval(GegenbauerSpec(lam, k), xs))
        for k, c in enumerate(coeffs)
    )
    np.testing.assert_allclose(specfun.gegenbauer_series(lam, coeffs, xs), expected, rtol=1e-13)


def _scaled_plain_loop(lam: float, d: int, s: np.ndarray) -> np.ndarray:
    # the ratio-form recurrence with no rescaling, as a reference
    prev, cur = np.ones_like(s), s.copy()
    if d == 0:
        return prev
    for k in range(2, d + 1):
        prev, cur = cur, ((k + lam - 1.0) / lam) * s * cur - (
            (k - 1.0) * (k + 2.0 * lam - 2.0) / (2.0 * lam)
        ) * prev
    return cur


@pytest.mark.parametrize("lam,d", [(0.5, 100), (0.5, 130), (1.0, 60), (6.0, 40), (1e4, 100), (3.0, 0)])
def test_scaled_is_bitwise_the_plain_recurrence(lam, d):
    # at lam = 1/2 the a-priori bound (prod k^2) passes 1e300 near d = 97, so
    # the d = 100 and 130 cases rescale mid-way; powers of two keep them exact
    s = np.linspace(-math.sqrt(2 * lam), math.sqrt(2 * lam), 257)
    expected = _scaled_plain_loop(lam, d, s)
    assert np.all(np.isfinite(expected))
    assert np.array_equal(specfun.gegenbauer_eval_scaled(GegenbauerSpec(lam, d), s), expected)


def test_recurrence_with_diagonal_terms_is_bitwise_the_plain_loop():
    # the in-place steps do the operations of (a_k x + c_k) P_{k-1} - b_k P_{k-2} in its order
    rng = np.random.default_rng(5)
    a, b, c = (rng.uniform(0.5, 2.0, 25).tolist() for _ in range(3))
    x = rng.uniform(-1.0, 1.0, 33)
    prev, cur = np.ones_like(x), a[0] * x + c[0]
    for ak, bk, ck in zip(a[1:], b[1:], c[1:]):
        prev, cur = cur, (ak * x + ck) * cur - bk * prev
    value, last, shift = specfun._recurrence(a, b, x, c=c)
    assert shift == 0 and np.array_equal(value, cur) and np.array_equal(last, prev)


@pytest.mark.parametrize("d,x,rescaled", [
    (30, np.linspace(-1.0, 1.0, 9), False),
    (300, np.linspace(-30.0, 30.0, 9), True),
    (30, 0.3, False),
    (300, 30.0, True),
])
def test_recurrence_leaves_x_alone_and_returns_arrays_of_its_own(d, x, rescaled):
    # the loop writes into three arrays of its own, also for a 0-d x
    x = np.asarray(x, dtype=float)
    saved = x.copy()
    value, prev, shift = specfun._recurrence(*specfun._hermite_ab(d), x)
    assert isinstance(shift, int) != rescaled
    assert np.array_equal(x, saved)
    assert np.shape(value) == np.shape(prev) == x.shape
    for first, second in ((value, prev), (value, x), (prev, x)):
        assert not np.shares_memory(first, second)


def _blocked_and_separate(ab, degrees, rng, spread):
    """One blocked pass over random points of each degree (``spread[i]`` their
    largest |x|) and one plain pass per degree on the same points."""
    xs = [rng.uniform(-top, top, 37) for top in spread]
    blocks = [(d, len(x)) for d, x in zip(degrees, xs)]
    together = specfun._recurrence(*ab, np.concatenate(xs), blocks=blocks)
    alone = [specfun._recurrence(ab[0][:d], ab[1][:d], x) for d, x in zip(degrees, xs)]
    return xs, blocks, together, alone


@pytest.mark.parametrize("lam,degrees", [(1.0, (40, 17, 17, 1)), (6.0, (30, 29, 2)), (0.5, (96, 3))])
def test_blocked_recurrence_is_bitwise_the_separate_passes(lam, degrees):
    # no rescale fires on these degrees, so every point's P_d and P_{d-1} are
    # those of a pass of its own degree
    ab = specfun._gegenbauer_ab(lam, degrees[0])
    xs, _, (value, prev, shift), alone = _blocked_and_separate(ab, degrees, np.random.default_rng(3), [1.0] * len(degrees))
    assert shift == 0
    assert np.array_equal(value, np.concatenate([v for v, _, _ in alone]))
    assert np.array_equal(prev, np.concatenate([p for _, p, _ in alone]))
    # a single block, beside empty ones, is the plain pass
    x, top = xs[0], degrees[0]
    plain = specfun._recurrence(*ab, x)
    longer = specfun._gegenbauer_ab(lam, top + 5)
    for ab_, blocks in ((ab, [(top, len(x))]), (ab, [(top, len(x)), (1, 0)]), (longer, [(top + 5, 0), (top, len(x))])):
        value, prev, shift = specfun._recurrence(*ab_, x, blocks=blocks)
        assert np.array_equal(value, plain[0]) and np.array_equal(prev, plain[1]) and shift == 0


@pytest.mark.parametrize("ab,degrees,spread", [
    # the rescale fires near step 630 in the blocked pass and later alone, as
    # the d = 700 block's own largest |x| is smaller than the d = 3 block's
    (specfun._gegenbauer_ab(6.0, 700), (700, 400, 3), (0.9, 1.0, 1.0)),
    (specfun._hermite_ab(200), (200, 50), (20.0, 30.0)),
])
def test_blocked_recurrence_across_a_rescale_is_within_4_ulps_in_log(ab, degrees, spread):
    xs, blocks, _, alone = _blocked_and_separate(ab, degrees, np.random.default_rng(4), spread)
    _, together = specfun._log_abs(ab, np.concatenate(xs), blocks=blocks)
    start = 0
    for d, x in zip(degrees, xs):
        got = together[start : start + len(x)]
        start += len(x)
        _, want = specfun._log_abs((ab[0][:d], ab[1][:d]), x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), d


def test_blocked_gegenbauer_roots_are_bitwise_each_degree_alone():
    # the blocked Newton pass rescales in the last four, and in the last two
    # the d = 240 and d = 150 points rescale at other steps than alone: a
    # rescale divides by a power of two, and the step is a ratio of two
    # values scaled alike
    cases = [
        (0.5, [41, 40, 7, 2, 1]),
        (6.0, [41, 40, 7, 2, 1]),
        (0.5, [700, 400, 3]),
        (499.5, [320, 120, 3]),
        (499.5, [320, 240, 3]),
        (5000.0, [200, 150, 7]),
    ]
    for lam, degrees in cases:
        got = specfun._gegenbauer_roots(lam, degrees)
        assert got == [specfun.gegenbauer_roots(GegenbauerSpec(lam, d)) for d in degrees], (lam, degrees)


def test_scan_never_hands_the_recurrence_more_than_the_point_budget(monkeypatch):
    # the scan's batches keep every pass within the budget (a degree whose
    # cell alone needs more, d >= 84, would be a batch of its own), so the
    # peak memory does not grow with the batch; (2, 4) takes the exact
    # rules, at most 861 points a sphere, and (2, 5) the root-split batches
    from spherehc import hypercheck, norms

    sizes = []
    plain = specfun._recurrence

    def recording(a, b, x, *args, **kwargs):
        blocks = kwargs.get("blocks") or [(len(a), np.size(x))]
        sizes.append((np.size(x), sum(1 for _, count in blocks if count)))
        return plain(a, b, x, *args, **kwargs)

    monkeypatch.setattr(specfun, "_recurrence", recording)
    for q, first_failure in ((4, (13, 7)), (5, (13, 6))):
        sizes.clear()
        report = hypercheck.counterexample_scan(2, q, range(2, 14), range(1, 41))
        assert len(report.grid) == 480 and report.first_failure == first_failure
        assert max(size for size, _ in sizes) <= norms._BATCH_NODES
        assert any(degrees > 1 for _, degrees in sizes)
    assert norms._degree_batches([90, 84, 83, 1]) == [[90], [84], [83], [1]]


@pytest.mark.parametrize(
    "counts,alpha,beta",
    [
        ((82, 66, 34, 16, 4, 2), 0.0, 0.0),
        ((82, 66, 34, 16, 4, 2), 499.0, 499.0),
        ((82, 66, 34, 16, 4, 2), 9999.0, 9999.0),
        ((41, 33, 32, 17, 16, 3, 1), 0.5, 0.5),
        ((41, 33, 32, 17, 16, 3, 1), 749.5, 749.5),
        ((32, 16), 1.5, 499.5),
        ((32, 16, 5, 1), 4.0, 0.5),
        ((32, 16), 2.0, 998.0),
    ],
)
def test_jacobi_rules_built_together_are_bitwise_each_built_alone(counts, alpha, beta):
    together = specfun._jacobi_rules(counts, alpha, beta)
    assert len(together) == len(counts)
    for m, (nodes, log_w) in zip(counts, together):
        alone_nodes, alone_log_w = specfun.jacobi_rule_log(m, alpha, beta)
        assert len(nodes) == m
        assert nodes.tobytes() == alone_nodes.tobytes()
        assert log_w.tobytes() == alone_log_w.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.5, 6.0, 499.0, 9999.0])
@pytest.mark.parametrize("m", [1, 2, 7, 16, 33, 82])
def test_symmetric_jacobi_rule_is_exactly_mirrored(m, alpha):
    nodes, log_w = specfun.jacobi_rule_log(m, alpha, alpha)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(log_w, log_w[::-1])
    assert np.all(np.diff(nodes) > 0)
    if m % 2:
        assert nodes[m // 2] == 0.0


@pytest.mark.parametrize("lam", [0.5, 6.0, 9999.5])
@pytest.mark.parametrize("k", [2, 41])
def test_gegenbauer_rule_is_the_positive_half_of_the_mpmath_rule(lam, k):
    # the 2k-point Gauss-Jacobi rule of alpha = beta = lam - 1/2 in 40
    # digits, its weights doubled and divided by mu0: nodes within 2 ulps and
    # log weights within 4 m eps, m = 2k, the rounding of P_m's recurrence
    nodes, log_w = norms._exact_rules(lam, (k,))
    exact, log_v, log_mu0 = gauss_jacobi_mp(2 * k, lam - 0.5, lam - 0.5, nodes)
    exact = np.array([float(x) for x in exact])
    log_v = np.array([float(v - log_mu0) for v in log_v]) + math.log(2.0)
    assert np.all(np.abs(nodes - exact) <= 2 * np.spacing(exact))
    assert np.all(np.abs(log_w - log_v) <= 8 * k * np.finfo(float).eps)
    assert abs(math.fsum(np.exp(log_w)) - 1.0) <= 4 * np.finfo(float).eps


def test_hermite_log_abs_across_rescale_matches_oracle():
    # h_400 passes the float range at every one of these points
    ys = [3.25, -37.5, 90.0]
    sign, log_abs = specfun.hermite_log_abs(HermiteSpec(400), np.array(ys))
    for y, got_sign, got in zip(ys, sign, log_abs):
        exact = hermite_explicit(400, Fraction(y))
        assert got_sign == (1 if exact > 0 else -1)
        assert got == pytest.approx(log_fraction(abs(exact)), rel=1e-15, abs=1e-12)


@pytest.mark.parametrize("d", [320, 400])
def test_gegenbauer_log_abs_past_float_range_matches_oracle(d):
    # on S^1000 (lam = 499.5), C_d(1) = binom(d + 998, d) passes the float
    # range from d = 309 on; the log pass of the plain recurrence keeps its
    # rescale shift, so log|C_d| stays finite
    xs = [1.0, -0.9990234375, 0.25, -0.75]
    sign, log_abs = specfun._log_abs(specfun._gegenbauer_ab(499.5, d), np.array(xs))
    assert log_abs[0] > math.log(np.finfo(float).max)
    for x, got_sign, got in zip(xs, sign, log_abs):
        exact = gegenbauer_explicit(Fraction(999, 2), d, Fraction(x))
        assert got_sign == (1 if exact > 0 else -1)
        assert got == pytest.approx(log_fraction(abs(exact)), rel=1e-15, abs=1e-12)


def test_gegenbauer_series_across_rescale_matches_oracle():
    # the a-priori bound (about 7^k at x = 3) passes 1e300 before degree 380,
    # while the sum itself, about 3e291, still fits in a float
    lam = Fraction(3, 2)
    coeffs = [0.0] * 381
    coeffs[0], coeffs[379], coeffs[380] = 1.0, -2.0, 0.5
    exact = 1 - 2 * gegenbauer_explicit(lam, 379, Fraction(3)) + gegenbauer_explicit(lam, 380, Fraction(3)) / 2
    for x in (3.0, np.array([3.0, 3.0])):
        got = np.asarray(specfun.gegenbauer_series(float(lam), coeffs, x))
        assert np.all(got > 0)
        np.testing.assert_allclose(np.log(got), log_fraction(exact), rtol=0, atol=1e-12)


# --------------------------------------------------------------------- roots

def test_roots_trivial():
    assert specfun.gegenbauer_roots(GegenbauerSpec(0.5, 1)) == (0.0,)
    assert specfun.gegenbauer_roots(GegenbauerSpec(2.0, 0)) == ()
    assert specfun.hermite_roots(HermiteSpec(1)) == (0.0,)
    assert specfun.hermite_roots(HermiteSpec(0)) == ()


def test_gegenbauer_degree_two_roots():
    # exact algebra: 2 lam (1 + lam) x^2 = lam at lam = 1/2 gives x = +-1/sqrt(3)
    roots = specfun.gegenbauer_roots(GegenbauerSpec(0.5, 2))
    assert roots[0] == pytest.approx(-1 / math.sqrt(3), rel=1e-14)
    assert roots[1] == pytest.approx(+1 / math.sqrt(3), rel=1e-14)


def test_hermite_degree_two_roots():
    roots = specfun.hermite_roots(HermiteSpec(2))
    assert roots == pytest.approx((-1.0, 1.0), rel=1e-13)


@pytest.mark.parametrize("lam,d", [(6.0, 7), (0.5, 12), (25.0, 20)])
def test_gegenbauer_roots_are_sign_changes(lam, d):
    spec = GegenbauerSpec(lam, d)
    roots = specfun.gegenbauer_roots(spec)
    assert len(roots) == d
    assert all(-1 < r < 1 for r in roots)
    assert all(b > a for a, b in zip(roots, roots[1:]))
    # symmetric +- pairs, zero present iff degree odd
    np.testing.assert_allclose(roots, [-r for r in reversed(roots)], atol=1e-15)
    eps = 1e-7
    for r in roots:
        left = specfun.gegenbauer_eval(spec, r - eps)
        right = specfun.gegenbauer_eval(spec, r + eps)
        assert left * right < 0


def test_hermite_roots_sign_changes():
    spec = HermiteSpec(4)
    roots = specfun.hermite_roots(spec)
    assert len(roots) == 4
    np.testing.assert_allclose(roots, [-r for r in reversed(roots)], atol=1e-15)
    for r in roots:
        assert specfun.hermite_eval(spec, r - 1e-7) * specfun.hermite_eval(spec, r + 1e-7) < 0


@pytest.mark.parametrize("lam", [0.5, 1.5, 6.0])
def test_root_interlacing(lam):
    for d in range(1, 41):
        lower = specfun.gegenbauer_roots(GegenbauerSpec(lam, d))
        upper = specfun.gegenbauer_roots(GegenbauerSpec(lam, d + 1))
        for i in range(d):
            assert upper[i] < lower[i] < upper[i + 1]


@pytest.mark.parametrize("lam,d", [(0.5, 3), (1.5, 9), (499.5, 8), (2.5, 40)])
def test_series_roots_of_one_polynomial_are_its_roots(lam, d):
    # the comrade matrix of C_d alone is similar to its Jacobi matrix
    roots = specfun._series_roots(lam, [0.0] * d + [1.0])
    expected = specfun.gegenbauer_roots(GegenbauerSpec(lam, d))
    assert roots == pytest.approx(expected, rel=0, abs=32 * np.finfo(float).eps)


def test_series_roots_are_the_real_roots_inside_the_interval():
    # on S^2, c + P_2(t) = 1.5 t^2 - 0.5 + c
    halves = pytest.approx((-0.5, 0.5), rel=0, abs=4 * np.finfo(float).eps)
    assert specfun._series_roots(0.5, [0.125, 0.0, 1.0]) == halves
    # trailing zeros and a leading coefficient whose comrade row would overflow
    assert specfun._series_roots(0.5, [0.125, 0.0, 1.0, 0.0, 1e-310, 0.0]) == halves
    assert specfun._series_roots(0.5, [-5.5, 0.0, 1.0]) == ()  # roots at +-2
    assert specfun._series_roots(0.5, [1.0, 0.0, 1.0]) == ()  # a complex pair
    assert specfun._series_roots(0.5, [3.0]) == specfun._series_roots(0.5, [0.0, 0.0]) == ()


_ROOT_LAMBDAS = [0.5, 1.0, 6.0, 499.5, 2499.5]


@pytest.mark.parametrize("lam", _ROOT_LAMBDAS)
def test_jacobi_matrix_of_the_recurrence_has_the_closed_form_entries(lam):
    # the closed forms the root finders once wrote beside their recurrences:
    # Gegenbauer sqrt(k (k + 2 lam - 1) / (4 (k + lam)(k + lam - 1))), Hermite sqrt(k)
    d = 400
    k = np.arange(1.0, d)
    matrix = specfun._jacobi_matrix(*specfun._gegenbauer_ab(lam, d))
    closed = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    np.testing.assert_allclose(np.diag(matrix, -1), closed, rtol=4 * np.finfo(float).eps, atol=0)
    assert not np.diag(matrix).any() and not np.triu(matrix).any()
    matrix = specfun._jacobi_matrix(*specfun._hermite_ab(d))
    assert np.array_equal(np.diag(matrix, -1), np.sqrt(k))
    assert not np.diag(matrix).any() and not np.triu(matrix).any()


@pytest.mark.parametrize("lam", _ROOT_LAMBDAS)
def test_gegenbauer_roots_match_a_50_digit_recurrence(lam):
    # one 50-digit Newton step on C_d from a float root lands within ~1e-32 of
    # the true root.  The root nearest 0 carries the rounding of the float
    # recurrence: at most 6.4 ulps over d <= 400 (lam = 0.5, d = 254); the
    # others stay within about 1.8
    from mpmath import mp

    with mp.workdps(50):
        lam_mp = mp.mpf(lam)
        a = [2 * (k + lam_mp - 1) / k for k in range(1, 401)]
        b = [(k + 2 * lam_mp - 2) / k for k in range(1, 401)]
        for d in (1, 2, 7, 40, 254, 400):
            roots = specfun.gegenbauer_roots(GegenbauerSpec(lam, d))
            # the roots are symmetric; past d = 40, every fifth from the middle out
            for i in range(d // 2, d, 1 if d <= 40 else 5):
                t = mp.mpf(roots[i])
                prev, cur = mp.mpf(1), a[0] * t
                for k in range(1, d):
                    prev, cur = cur, a[k] * t * cur - b[k] * prev
                exact = t - cur * (1 - t * t) / ((d + 2 * lam_mp - 1) * prev - d * t * cur)
                ulp = np.spacing(max(abs(float(exact)), np.finfo(float).tiny))
                assert abs(float(exact - t)) <= 8 * ulp, (d, i)


# ------------------------------------------------------------- gamma helpers

def test_log_gamma_and_beta():
    assert specfun.log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # B(1/2, 1/2) = pi
    assert specfun.log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-14)
    with pytest.raises(ValueError):
        specfun.log_beta(-1.0, 2.0)


@pytest.mark.parametrize(
    "a,b", [(0.5, 0.5), (3.0, 500.5), (1.0, 500.5), (0.5, 1000.5), (25.0, 30.0), (500.5, 500.5), (3.0, 1e4), (20.0, 1e6)]
)
def test_log_beta_matches_mpmath(a, b):
    # a difference of lgamma values is 5.9e-13 off at (0.5, 1000.5)
    from mpmath import mp

    with mp.workdps(40):
        exact = float(mp.log(mp.beta(a, b)))
    assert abs(specfun.log_beta(a, b) - exact) <= 4 * np.finfo(float).eps * max(1.0, abs(exact))
    assert specfun.log_beta(b, a) == specfun.log_beta(a, b)


def test_c_lambda_values():
    # Gamma-identity oracles: c_{1/2} = 1/2, c_1 = 2/pi
    assert specfun.c_lambda(0.5) == pytest.approx(0.5, rel=1e-13)
    assert specfun.c_lambda(1.0) == pytest.approx(2 / math.pi, rel=1e-13)


@pytest.mark.parametrize("lam", [0.5, 1.0, 6.5, 19.5, 20.0, 49.5, 499.5, 5000.0, 1e5])
def test_c_lambda_matches_mpmath(lam):
    # a difference of lgamma values is off by 1.2e-13 at lam = 499.5
    from mpmath import mp

    mp.dps = 50
    exact = mp.loggamma(lam + 1) - mp.loggamma(mp.mpf(lam) + mp.mpf(1) / 2) - mp.log(mp.pi) / 2
    assert abs(math.log(specfun.c_lambda(lam)) - float(exact)) <= 2e-15


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.5, 30.0])
def test_c_lambda_normalizes_the_weight(lam):
    from spherehc.quadrature import integrate_piecewise

    c = specfun.c_lambda(lam)

    def w(t):
        return c * (1 - t * t) ** (lam - 0.5)

    res = integrate_piecewise(w, [], (-1.0, 1.0), 1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-10)


# ------------------------------------------------------- Gauss-Jacobi rules

_JACOBI_EXPONENTS = [
    (0.0, 0.0), (2.0, 2.0), (4.0, 0.5), (-0.5, 0.7),
    (0.0, 499.5), (1.5, 499.5), (2.0, 998.0), (0.0, 2499.5), (749.5, 749.5),
]


@pytest.mark.parametrize(
    "m,alpha,beta",
    [(m, alpha, beta) for m in (1, 2, 5, 16, 32) for alpha, beta in _JACOBI_EXPONENTS]
    + [(m, alpha, alpha) for m in (16, 32, 82) for alpha in (499.5, 9999.5)],
)
def test_jacobi_rule_matches_mpmath(m, alpha, beta):
    # log weights of size L cannot resolve less than an ulp of L, so the
    # weights are held to 2 eps |log mu0| plus a floor; scipy's rules summed
    # 6.5e-13 (about 11 ulps of log mu0) below mu0 at (0, 499.5)
    from mpmath import mp

    eps = np.finfo(float).eps
    nodes, log_w = specfun.jacobi_rule_log(m, alpha, beta)
    exact_nodes, exact_log_w, log_mu0 = gauss_jacobi_mp(m, alpha, beta, nodes)
    band = eps * (2.0 * abs(float(log_mu0)) + 64.0)
    with mp.workdps(40):
        node_err = [abs(float(e - x)) for e, x in zip(exact_nodes, nodes)]
        weight_err = sum(abs(mp.exp(w - log_mu0) - mp.exp(e - log_mu0)) for w, e in zip(log_w, exact_log_w))
        sum_err = abs(mp.log(sum(mp.exp(mp.mpf(w)) for w in log_w)) - log_mu0)
    assert np.all(np.array(node_err) <= 4 * np.spacing(np.maximum(np.abs(nodes), 1e-3)))
    assert float(weight_err) <= band
    assert float(sum_err) <= band


@pytest.mark.parametrize("alpha,beta", [(4.0, 0.5), (1.5, 499.5), (-0.5, 0.7)])
def test_jacobi_rule_integrates_its_degree(alpha, beta):
    # integral (1 + x)^k (1 - x)^alpha (1 + x)^beta = 2^(s + k + 1) B(alpha + 1, beta + k + 1)
    m = 6
    nodes, log_w = specfun.jacobi_rule_log(m, alpha, beta)
    for k in range(2 * m):
        log_sum = np.log(np.sum(np.exp(log_w + k * np.log1p(nodes) - log_w.max()))) + log_w.max()
        exact = (alpha + beta + k + 1) * math.log(2.0) + specfun.log_beta(alpha + 1.0, beta + k + 1.0)
        assert log_sum == pytest.approx(exact, abs=1e-13 * max(1.0, abs(exact)))


def test_jacobi_rule_validation():
    with pytest.raises(ValueError):
        specfun.jacobi_rule_log(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        specfun.jacobi_rule_log(4, -1.0, 0.0)
    # a non-integer size and an infinite or NaN exponent are refused up
    # front, not by numpy or LAPACK after RuntimeWarnings
    bad = [(2.5, 0.0, 0.0), ("3", 0.0, 0.0), (3, 0.0, math.inf), (3, math.inf, 0.0), (3, math.nan, 0.0)]
    for count, alpha, beta in bad:
        with pytest.raises(ValueError):
            specfun.jacobi_rule_log(count, alpha, beta)
    nodes, _ = specfun.jacobi_rule_log(np.int64(3), 0.0, 0.0)
    assert len(nodes) == 3
    with pytest.raises(ValueError):
        specfun._jacobi_rules((16, 32), 0.0, 0.0)


# ---------------------------------------------------------------- validation

def test_spec_validation():
    with pytest.raises(ValueError):
        GegenbauerSpec(0.0, 3)
    with pytest.raises(ValueError):
        GegenbauerSpec(1.0, -1)
    with pytest.raises(ValueError):
        HermiteSpec(-2)
    # a non-integer degree is refused at the spec, not deep in a recurrence
    with pytest.raises(ValueError):
        specfun.gegenbauer_roots(GegenbauerSpec(1.0, 2.5))
    with pytest.raises(ValueError):
        specfun.hermite_roots(HermiteSpec(2.5))
    with pytest.raises(ValueError):
        GegenbauerSpec(1.0, None)
    # numpy integers are accepted and stored as ints
    for spec in (GegenbauerSpec(1.0, np.int64(3)), HermiteSpec(np.int32(3))):
        assert type(spec.degree) is int and spec.degree == 3
    assert specfun.hermite_roots(HermiteSpec(np.int64(3))) == specfun.hermite_roots(HermiteSpec(3))
