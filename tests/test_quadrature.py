"""Gauss rules, adaptive piecewise integration, and the subordination identity."""

from __future__ import annotations

import math

import heapq
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spherehc import hypercheck, quadrature, specfun
from spherehc.norms import _gaussian_integrals as gaussian_integrals, gaussian_lp_norm
from spherehc.quadrature import (
    ADAPTIVE,
    GAUSS_JACOBI,
    _jacobi_log_rule,
    _log_sum_exp,
    _rule_rows,
    integrate_piecewise,
    integrate_root_intervals,
    subordination_check,
)
from spherehc.specfun import GegenbauerSpec

from oracles import (
    gaussian_even_moment,
    hermite_fourth_moment,
    log_fraction,
    simpson_composite,
    sphere_power_integral_exact,
    xlogx,
    zonal_power_integral_mp,
)


# ----------------------------------------------------------------- gauss rule

def _legendre(count):
    """Nodes and weights of the count-point Gauss-Legendre rule, the Gauss-Jacobi rule (0, 0)."""
    nodes, log_w = specfun.jacobi_rule_log(count, 0.0, 0.0)
    return nodes, np.exp(log_w)


def test_one_point_rule():
    nodes, weights = _legendre(1)
    assert nodes.tolist() == [0.0]
    assert weights.tolist() == [2.0]


def test_two_point_rule_integrates_x2():
    nodes, weights = _legendre(2)
    assert float(weights @ nodes**2) == pytest.approx(2 / 3, rel=1e-15)


def test_high_monomial_exactness():
    nodes, weights = _legendre(20)
    got = float(weights @ nodes**38)
    assert got == pytest.approx(2 / 39, rel=1e-13)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13, 21])
def test_gauss_exactness_all_monomials(count):
    nodes, weights = _legendre(count)
    for k in range(2 * count):
        got = float(weights @ nodes**k)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        if exact == 0.0:
            assert abs(got) < 1e-14
        else:
            assert got == pytest.approx(exact, rel=1e-12)


def test_rule_invariants():
    nodes, weights = _legendre(15)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert nodes[0] > -1 and nodes[-1] < 1
    with pytest.raises(ValueError):
        specfun.jacobi_rule_log(0, 0.0, 0.0)


# ------------------------------------------------------------------ piecewise

def test_constant_integrand():
    res = integrate_piecewise(lambda t: np.ones_like(t), [], (-1.0, 1.0), 1e-12)
    assert res.value == pytest.approx(2.0, rel=1e-14)
    assert res.converged


def test_abs_with_breakpoint():
    res = integrate_piecewise(np.abs, [0.0], (-1.0, 1.0), 1e-12)
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_cubed_gegenbauer_against_simpson():
    spec = GegenbauerSpec(0.5, 2)
    c = specfun.c_lambda(0.5)

    def f(t):
        return np.abs(np.asarray(specfun.gegenbauer_eval(spec, t))) ** 3 * c

    cuts = specfun.gegenbauer_roots(spec)
    res = integrate_piecewise(f, cuts, (-1.0, 1.0), 1e-12)
    oracle = simpson_composite(f, -1.0, 1.0, 1_000_000)
    assert res.converged
    assert res.error_estimate < 1e-12 * abs(res.value) * 10
    assert res.value == pytest.approx(oracle, abs=5e-13)


def test_error_estimate_bounds_truth_on_exact_cases():
    # |t|^3 has a known integral 1/2 * 2 = 0.5 per side
    res = integrate_piecewise(lambda t: np.abs(t) ** 3, [0.0], (-1.0, 1.0), 1e-13)
    assert abs(res.value - 0.5) <= max(res.error_estimate, 5e-15)


@pytest.mark.parametrize(
    "f, exact",
    [
        (np.exp, "2.350402387287602913764763701191201630311"),
        (lambda t: 1.0 / (3.0 + t), "0.6931471805599453094172321214581765680755"),
        (lambda t: np.sqrt(2.0 + t), "2.797434948471087920388226016345078067219"),
    ],
)
def test_piecewise_band_covers_the_rounding_of_its_sum(f, exact):
    # one panel whose 16- and 32-node sums agree to the last bit has a gap
    # of 0, but the sum itself rounds: e - 1/e comes out 7.3e-16 from its
    # 40-digit value
    res = integrate_piecewise(f, [], (-1.0, 1.0), 1e-12)
    assert res.converged
    assert abs(Fraction(res.value) - Fraction(exact)) <= res.error_estimate


def test_breakpoint_sufficiency():
    # root breakpoints alone match root breakpoints plus 50 artificial extras
    for lam, d, p in ((6.0, 7, 2.5), (12.5, 13, 3.0), (25.0, 20, 3.7)):
        spec = GegenbauerSpec(lam, d)
        c = specfun.c_lambda(lam)

        def f(t):
            poly = np.abs(np.asarray(specfun.gegenbauer_eval(spec, t))) ** p
            return poly * c * (1 - t * t) ** (lam - 0.5)

        roots = list(specfun.gegenbauer_roots(spec))
        extra = roots + list(np.linspace(-0.99, 0.99, 50))
        a = integrate_piecewise(f, roots, (-1.0, 1.0), 1e-12)
        b = integrate_piecewise(f, extra, (-1.0, 1.0), 1e-12)
        assert a.value == pytest.approx(b.value, rel=1e-9)


@pytest.mark.parametrize("n,d,p", [(4, 3, 2), (4, 5, 4), (6, 4, 2), (6, 2, 4)])
def test_even_power_matches_single_gauss_rule(n, d, p):
    # for even p and even n the whole integrand is a polynomial: one Gauss
    # rule of sufficient order integrates it exactly
    lam = (n - 1) / 2
    spec = GegenbauerSpec(lam, d)
    c = specfun.c_lambda(lam)

    def f(t):
        t = np.asarray(t, dtype=float)
        return specfun.gegenbauer_eval(spec, t) ** p * c * (1 - t * t) ** (lam - 0.5)

    degree = p * d + (n - 2)
    nodes, weights = _legendre(degree // 2 + 1)
    exact = float(weights @ f(nodes))
    res = integrate_piecewise(f, specfun.gegenbauer_roots(spec), (-1.0, 1.0), 1e-12)
    assert res.value == pytest.approx(exact, rel=1e-12)


def test_nonconvergence_is_flagged(monkeypatch):
    # an integrable singularity with a huge accuracy demand exhausts the budget
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)

    def f(t):
        return 1.0 / np.sqrt(np.abs(t) + 1e-300)

    res = integrate_piecewise(f, [], (0.0, 1.0), 1e-15)
    assert not res.converged
    assert res.subintervals_used >= 64


def test_non_finite_integrand_stops_at_once():
    # bisection cannot make an overflowed panel finite: no panel is split
    def f(t):
        return np.where(t > 0.5, np.inf, 1.0)

    res = integrate_piecewise(f, [0.0], (-1.0, 1.0), 1e-12)
    assert not res.converged
    assert math.isnan(res.value)
    assert res.subintervals_used == 2


def test_interval_validation():
    for interval in ((1.0, -1.0), (1.0, 1.0)):
        with pytest.raises(ValueError):
            integrate_piecewise(np.abs, [], interval, 1e-10)
    with pytest.raises(ValueError):
        integrate_piecewise(np.abs, [], (-1.0, 1.0), -1e-10)


# ------------------------------------------------------------ Jacobi panels

def _legendre_reference(f, edges, tol):
    """The worst-panel-first loop with two Gauss-Legendre calls per panel, as
    it ran before panels carried exponents: (value, error estimate, panels)."""

    def panel(lo, hi):
        half = np.array([0.5 * (hi - lo)])
        # nodes and weights formed as the integrator forms them: lo + half (1 + x)
        # and exp(log w + log half)
        coarse, fine = (
            float(np.exp(log_w + np.log(half)) @ np.asarray(f(lo + half * (1.0 + x)), dtype=float))
            for x, log_w in (specfun.jacobi_rule_log(count, 0.0, 0.0) for count in (16, 32))
        )
        return fine, abs(fine - coarse), abs(fine)

    heap, values, ids = [], {}, itertools.count()
    segments = list(zip(edges, edges[1:]))
    while True:
        for seg in segments:
            idx = next(ids)
            values[idx] = panel(*seg)
            heapq.heappush(heap, (-values[idx][1], idx, *seg))
        if math.fsum(v[1] for v in values.values()) <= tol * math.fsum(v[2] for v in values.values()):
            break
        _, idx, lo, hi = heapq.heappop(heap)
        del values[idx]
        segments = [(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)]
    return math.fsum(v[0] for v in values.values()), math.fsum(v[1] for v in values.values()), len(values)


def _entropy_integrand(g):
    lam = (g.n - 1) / 2
    c = specfun.c_lambda(lam)
    coeffs = np.asarray(g.coeffs, dtype=float)

    def f(t):
        usq = np.asarray(specfun.gegenbauer_series(lam, coeffs, t), dtype=float) ** 2
        return xlogx(usq) * c * (1 - t * t) ** (lam - 0.5)

    return f


@pytest.mark.parametrize("e", [0.5, 1.0, 5.5])
@pytest.mark.parametrize("k", [0, 2, 6])
def test_end_exponent_panels_match_beta_integrals(e, k):
    # integral t^k (1 - t^2)^e dt = B((k + 1)/2, e + 1) for even k; the
    # integrator carries the end weight ((t + 1)(1 - t))^e itself
    res = integrate_piecewise(lambda t: t**k, [], (-1.0, 1.0), 1e-12, end_exponent=e)
    assert res.converged and res.subintervals_used == 1
    a, b = (k + 1) / 2, e + 1
    assert res.value == pytest.approx(math.gamma(a) * math.gamma(b) / math.gamma(a + b), rel=1e-14)


@pytest.mark.parametrize("e", [0.0, 0.5, 5.5])
def test_end_exponent_means_the_same_in_both_integrators(e):
    # both integrate |P|^p ((t + 1)(1 - t))^e: one in linear space from |P|^p,
    # the other in log space from log|P|
    spec = GegenbauerSpec(1.5, 5)
    roots = specfun.gegenbauer_roots(spec)
    p = 3.0

    def poly(t):
        return np.asarray(specfun.gegenbauer_eval(spec, t), dtype=float)

    linear = integrate_piecewise(lambda t: np.abs(poly(t)) ** p, roots, (-1.0, 1.0), 1e-12, end_exponent=e)
    (log_space,) = integrate_root_intervals(lambda t: np.log(np.abs(poly(t))), roots, (p,), e, 1e-12)
    assert linear.converged and log_space.converged
    assert abs(linear.value - log_space.value) <= linear.error_estimate + log_space.value * log_space.error_estimate


@pytest.mark.parametrize("r", [0.0, 0.3, -0.71])
def test_root_interval_power_at_a_root_matches_closed_form(r):
    # the rule on each side of r carries the exponent 1.5 at r, so the first
    # round integrates |t - r|^1.5 exactly
    (res,) = integrate_root_intervals(lambda t: np.log(np.abs(t - r)), [r], (1.5,), 0.0, 1e-12)
    exact = ((1 - r) ** 2.5 + (1 + r) ** 2.5) / 2.5
    assert res.converged and res.method == GAUSS_JACOBI and res.panels == 2
    assert res.value == pytest.approx(exact, rel=1e-14)


def test_default_exponents_are_bitwise_the_legendre_panels():
    g = hypercheck.random_zonal_polynomial(2, 8, np.random.default_rng(77))
    cases = [
        (lambda t: 3 * t**7 - t**4 + 0.5, [-0.2, 0.4]),
        (_entropy_integrand(g), []),
        (lambda t: np.abs(t - 0.1) ** 1.5, [0.1]),
    ]
    bisected = []
    for f, cuts in cases:
        res = integrate_piecewise(f, cuts, (-1.0, 1.0), 1e-12)
        value, error, panels = _legendre_reference(f, [-1.0, *cuts, 1.0], 1e-12)
        bisected.append(res.subintervals_used > len(cuts) + 1)
        if not bisected[-1]:
            # the same panels, summed the same way
            assert (res.value, res.subintervals_used) == (value, panels)
        else:
            # rounds split other panels than worst-first does, so the two
            # agree within their error estimates
            assert res.converged and abs(res.value - value) <= res.error_estimate + error
    assert bisected == [False, True, True]


def test_integrand_called_once_per_round():
    # as for the root intervals: the first round evaluates every panel at
    # once, and each later round the children of the split panels, 48 nodes
    # each
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.abs(t) ** 1.5 * (1 - t * t) ** 0.5

    res = integrate_piecewise(f, [0.0], (-1.0, 1.0), 1e-13, end_exponent=0.5)
    assert res.converged
    assert sizes[0] == 2 * 48 and len(sizes) > 1
    assert all(size % 96 == 0 for size in sizes[1:])
    assert sum(sizes) == 2 * 48 + 96 * (res.subintervals_used - 2)


def test_cancelling_integrand_converges_against_its_l1_sum():
    # sin(20 t) + 1e-3 changes sign 13 times and integrates to 2e-3, so the
    # tolerance holds against the L1 sum of the panels, which is at most
    # integral |sin(20 t)| dt + 2e-3 = (12 + 1 - cos(20 - 6 pi)) / 10 + 2e-3.
    # The cut at 0.3 makes the panels asymmetric; on (-1, 1) alone the odd
    # sine would cancel exactly in both rules and nothing would bisect
    tol = 1e-12
    res = integrate_piecewise(lambda t: np.sin(20.0 * t) + 1e-3, [0.3], (-1.0, 1.0), tol)
    l1 = (13.0 - math.cos(20.0 - 6.0 * math.pi)) / 10.0 + 2e-3
    assert res.converged and res.subintervals_used > 2
    assert abs(res.value - 2e-3) <= tol * l1


def test_root_intervals_call_log_abs_once_per_round():
    # at lam = 499.5 the end weight is too steep for 32 nodes, so both
    # exponents bisect; every round evaluates the new panels of both at once,
    # and each round's children come in pairs of 48 nodes each
    ab = specfun._gegenbauer_ab(499.5, 6)
    roots = specfun.gegenbauer_roots(GegenbauerSpec(499.5, 6))
    sizes = []

    def log_abs(t):
        sizes.append(t.size)
        return specfun._log_abs(ab, t)[1]

    results = integrate_root_intervals(log_abs, roots, (4.0, 1.5), 499.5, 1e-12)
    assert all(r.method == ADAPTIVE and r.converged for r in results)
    first = 2 * 48 * (len(roots) + 1)
    assert sizes[0] == first and len(sizes) > 1
    assert all(size % 96 == 0 for size in sizes[1:])
    # a split panel is replaced by two children of 48 nodes each, so every
    # panel past the first round's counts 96 evaluated nodes
    splits = sum(r.panels for r in results) - 2 * (len(roots) + 1)
    assert sum(sizes) == first + 96 * splits


def _gegenbauer_case(lam, d):
    ab = specfun._gegenbauer_ab(lam, d)
    roots = specfun.gegenbauer_roots(GegenbauerSpec(lam, d))
    return (lambda t: specfun._log_abs(ab, t)[1]), roots, lam - 0.5, {}


def _hermite_case(d):
    spec = specfun.HermiteSpec(d)
    roots = specfun.hermite_roots(spec)
    radius = roots[-1] + 10.0
    log_weight = lambda y: -0.5 * y * y
    return (lambda y: specfun.hermite_log_abs(spec, y)[1]), roots, 0.0, {"interval": (-radius, radius), "log_weight": log_weight}


@pytest.mark.parametrize("case,exponents,methods", [
    # every job converges in the first round
    (_gegenbauer_case(1.0, 15), (4.0, 2.0), (GAUSS_JACOBI, GAUSS_JACOBI)),
    # both bisect
    (_gegenbauer_case(499.5, 6), (4.0, 1.5), (ADAPTIVE, ADAPTIVE)),
    # the Gaussian side, with a log weight
    (_hermite_case(40), (4.0, 2.0), (ADAPTIVE, ADAPTIVE)),
    # S^12 at d = 7: p = 4 converges in the first round, p = 40 bisects
    (_gegenbauer_case(6.0, 7), (40.0, 4.0), (ADAPTIVE, GAUSS_JACOBI)),
])
def test_root_interval_jobs_are_independent(case, exponents, methods):
    # the exponents of one call share one panel table per round, but each
    # result is bitwise the one a call with that exponent alone gives
    log_abs, roots, end, options = case
    together = integrate_root_intervals(log_abs, roots, exponents, end, 1e-12, **options)
    alone = [integrate_root_intervals(log_abs, roots, (p,), end, 1e-12, **options)[0] for p in exponents]
    assert tuple(r.method for r in together) == methods
    assert list(together) == alone


def test_root_intervals_bisect_past_an_overflowing_gap():
    # exp(-p (t - x0)^2) peaks on a node of the 16-node rule and between
    # nodes of the 32-node one, so the 16-node sum is e^(p delta^2) times the
    # 32-node sum, far past the float range; the gap must stay finite, so
    # that bisection goes on rather than stopping or overflowing
    x0 = float(quadrature._jacobi_log_rule(16, 0.0, 0.0)[0][8])
    p = 1e7
    (res,) = integrate_root_intervals(lambda t: -((t - x0) ** 2), (), (p,), 0.0, 1e-12)
    assert res.method == ADAPTIVE and res.converged
    assert abs(res.log_value - 0.5 * math.log(math.pi / p)) <= res.error_estimate


def test_root_intervals_stop_unconverged_at_the_panel_budget(monkeypatch):
    # noise of 1e-9 in log|P| keeps the panel gaps near 1e-9, which no
    # bisection closes; the loop ends at MAX_PANELS with converged=False
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    rng = np.random.default_rng(3)

    def log_abs(t):
        return np.log(np.abs(t)) + 1e-9 * rng.standard_normal(t.shape)

    (res,) = integrate_root_intervals(log_abs, [0.0], (2.0,), 0.0, 1e-12)
    assert res.method == ADAPTIVE and not res.converged
    assert 2 < res.panels <= 64
    assert res.value == pytest.approx(2 / 3, rel=1e-6)


@pytest.mark.parametrize("exponents", [(-1.0, 0.0), (0.0, -1.5)])
def test_exponent_at_or_below_minus_one_is_rejected(exponents):
    # (end exponent, exponent at the roots)
    end, p = exponents
    with pytest.raises(ValueError):
        integrate_root_intervals(lambda t: np.log(np.abs(t)), [0.0], (p,), end, 1e-10)
    if end <= -1.0:
        with pytest.raises(ValueError):
            integrate_piecewise(np.abs, [0.0], (-1.0, 1.0), 1e-10, end_exponent=end)


def test_jacobi_rule_with_swapped_exponents_is_the_mirror_image():
    nodes, log_w, _ = _jacobi_log_rule(16, 0.5, 3.0)
    mirror_nodes, mirror_log_w, _ = _jacobi_log_rule(16, 3.0, 0.5)
    assert np.array_equal(nodes, -mirror_nodes[::-1])
    assert np.array_equal(log_w, mirror_log_w[::-1])


def test_jacobi_panels_past_mu0_overflow():
    # alpha + beta = 1501: mu0 = 2^1502 B(2, 1501) passes the float range,
    # but the log weights do not, so the end panels keep their Jacobi rules
    with np.errstate(over="ignore"):
        assert np.exp(specfun.jacobi_rule_log(16, 1.0, 1500.0)[1][-1]) == math.inf
    # levels (0, 1, 1500): row 1 * 3 + 2 has alpha = 1 and beta = 1500
    nodes, rest = _rule_rows((0.0, 1.0, 1500.0))
    assert np.all(np.isfinite(np.exp(rest))) and nodes[5].min() > 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (res,) = integrate_root_intervals(lambda t: np.log(np.abs(t)), [0.0], (1.0,), 1500.0, 1e-12)
    assert res.converged
    assert res.value == pytest.approx(1 / 1501, rel=1e-13)


def test_s3_entropy_takes_few_panels(monkeypatch):
    # the entropy passes the end exponent 1/2 to the panels, so they no
    # longer bisect toward t = +-1 (a median of 24 Legendre panels)
    counts = []

    def counted(*args, **kwargs):
        res = integrate_piecewise(*args, **kwargs)
        counts.append(res.subintervals_used)
        return res

    monkeypatch.setattr(hypercheck, "integrate_piecewise", counted)
    rng = np.random.default_rng(8)
    for _ in range(40):
        hypercheck.entropy_functional(hypercheck.random_zonal_polynomial(3, 8, rng))
    assert len(counts) == 40
    assert float(np.median(counts)) <= 8


# --------------------------------------------------------- root-interval rule

def test_root_intervals_take_several_exponents_in_one_pass():
    # one log|P| call on the nodes of both exponents gives the results of
    # one call per exponent, bitwise
    ab = specfun._gegenbauer_ab(1.5, 9)
    roots = specfun.gegenbauer_roots(GegenbauerSpec(1.5, 9))
    sizes = []

    def log_abs(t):
        sizes.append(t.size)
        return specfun._log_abs(ab, t)[1]

    both = integrate_root_intervals(log_abs, roots, (4.0, 1.5), 1.0, 1e-12)
    alone = tuple(integrate_root_intervals(log_abs, roots, (e,), 1.0, 1e-12)[0] for e in (4.0, 1.5))
    assert sizes[0] == sizes[1] + sizes[2] == 2 * 48 * (len(roots) + 1)
    assert both == alone
    assert all(r.method == GAUSS_JACOBI and r.converged for r in both)
    with pytest.raises(ValueError):
        integrate_root_intervals(log_abs, (0.5, -0.5), (2.0,), 1.0, 1e-12)


def test_root_intervals_reject_disordered_roots():
    # the edges (a, roots..., b) must strictly increase
    with pytest.raises(ValueError, match="strictly increase"):
        integrate_root_intervals(lambda t: np.log(np.abs(t)), (0.5, 0.1), (2.0,), 0.0, 1e-12)


def test_root_intervals_without_roots_take_one_interval():
    # integral of (2 + t)^2 (1 - t^2) over [-1, 1] = 16/3 + 2/3 - 2/5 = 28/5
    (res,) = integrate_root_intervals(lambda t: np.log(2.0 + t), (), (2.0,), 1.0, 1e-12)
    assert res.converged and res.method == GAUSS_JACOBI and res.panels == 1
    assert res.value == pytest.approx(5.6, rel=1e-14)


def test_log_sum_exp_weighs_sizes_by_share():
    # rows (1, 3) and (2, 2) both sum to 4; a size of inf counts as 0
    terms = np.log(np.array([[1.0, 3.0], [2.0, 2.0]]))
    total, mean = _log_sum_exp(terms, np.array([[4.0, 8.0], [1.0, np.inf]]))
    assert total == pytest.approx(np.log([4.0, 4.0]), rel=1e-15)
    assert mean == pytest.approx([(4.0 + 24.0) / 4.0, 2.0 / 4.0], rel=1e-15)
    # a row whose largest term is not finite gives that term and no size
    total, mean = _log_sum_exp(np.array([[-np.inf, -np.inf], [0.0, np.inf]]), np.ones((2, 2)))
    assert total.tolist() == [-np.inf, np.inf] and mean.tolist() == [0.0, 0.0]


# ------------------------------------------------------------ even integrands

def _full_and_half(log_abs, roots, exponents, end, **options):
    full = integrate_root_intervals(log_abs, roots, exponents, end, 1e-12, **options)
    half = integrate_root_intervals(log_abs, roots, exponents, end, 1e-12, even=True, **options)
    return full, half


@pytest.mark.parametrize("n,d,exponents", [
    # n = 2 has end exponent 0; odd d has a root at the centre, even d a cut
    (2, 7, (4.0, 2.0)),
    (2, 8, (4.0, 2.0)),
    (3, 7, (4.0, 2.0)),
    (3, 10, (4.0, 2.0)),
    (13, 6, (4.0, 2.0)),
    (13, 7, (4.0, 2.0)),
    # |C_7|^1.5 has a kink at the centre, which the half's rule must carry
    (13, 7, (3.0, 1.5)),
    # both halves bisect
    (1000, 6, (4.0, 2.0)),
    (1000, 30, (3.0, 1.5)),
])
def test_even_zonal_half_matches_the_full_interval_and_the_oracle(n, d, exponents):
    lam = (n - 1) / 2
    log_abs, roots, end, _ = _gegenbauer_case(lam, d)
    full, half = _full_and_half(log_abs, roots, exponents, end)
    log_c = math.log(specfun.c_lambda(lam))
    for p, whole, res in zip(exponents, full, half):
        assert whole.converged and res.converged and res.method == whole.method
        assert res.panels < whole.panels
        assert abs(res.log_value - whole.log_value) <= res.error_estimate + whole.error_estimate
        if p % 2:
            exact = zonal_power_integral_mp(n, d, p, roots)
        else:
            exact = log_fraction(sphere_power_integral_exact(Fraction(n - 1, 2), d, int(p)))
        # the band of the norm path, with its recurrence floor
        band = res.error_estimate + 4.0 * p * (d + 1) * quadrature._EPS
        assert abs(res.log_value + log_c - exact) <= band


@pytest.mark.parametrize("d", [3, 40, 180])
def test_even_hermite_half_matches_the_full_interval_and_the_moments(d):
    # E[h_d^2] = d! and E[h_d^4] from the product linearization
    log_abs, roots, end, options = _hermite_case(d)
    options["log_weight"] = lambda y: -0.5 * y * y - 0.5 * math.log(2.0 * math.pi)
    full, half = _full_and_half(log_abs, roots, (4.0, 2.0), end, **options)
    for whole, res in zip(full, half):
        assert whole.converged and res.converged
        assert abs(res.log_value - whole.log_value) <= res.error_estimate + whole.error_estimate
    exact = (log_fraction(Fraction(hermite_fourth_moment(d))), log_fraction(Fraction(math.factorial(d))))
    for res, value in zip(gaussian_integrals(d, (4.0, 2.0), 1e-12), exact):
        assert res.converged
        assert abs(res.log_value - value) <= res.error_estimate


def test_even_integrand_needs_symmetric_roots():
    log_abs = lambda t: np.log(np.abs(t * t - 0.25))
    with pytest.raises(ValueError, match="symmetric"):
        integrate_root_intervals(log_abs, (-0.5, 0.4), (2.0,), 0.0, 1e-12, even=True)
    # symmetric about 0, but not about the centre of (-1, 2)
    with pytest.raises(ValueError, match="symmetric"):
        integrate_root_intervals(log_abs, (-0.5, 0.5), (2.0,), 0.0, 1e-12, interval=(-1.0, 2.0), even=True)
    # integral of (t^2 - 1/4)^2 (1 - t^2) over [-1, 1] = 9/140, from the
    # edges (0, 0.5, 1) with a cut at 0
    (res,) = integrate_root_intervals(log_abs, (-0.5, 0.5), (2.0,), 1.0, 1e-12, even=True)
    assert res.converged and res.panels == 2
    assert res.value == pytest.approx(9 / 140, rel=1e-14)


def test_even_first_round_evaluates_half_the_nodes():
    # C_7 on S^12: the edges (0, three positive roots, 1) give 4 panels of
    # 48 nodes per exponent, where the whole of [-1, 1] has 8
    log_abs, roots, end, _ = _gegenbauer_case(6.0, 7)
    calls = {}
    for even in (False, True):
        points = calls[even] = []

        def counted(t, points=points):
            points.append(t.copy())
            return log_abs(t)

        results = integrate_root_intervals(counted, roots, (4.0, 2.0), end, 1e-12, even=even)
        assert all(r.method == GAUSS_JACOBI for r in results)
    assert [t.size for t in calls[False]] == [768]
    assert [t.size for t in calls[True]] == [384]
    assert calls[True][0].min() >= 0.0 and calls[True][0].max() <= 1.0


# ------------------------------------------------------------------- gaussian

# gaussian_lp_norm(1, 2k) ** (2k) is the moment E[y^(2k)], so these check the
# truncation radius and the tail bound of the Gaussian-measure integral

def test_gaussian_probability_mass():
    # ||h_d||_2^2 = d! holds only under a probability measure
    for d in (1, 2, 5):
        assert gaussian_lp_norm(d, 2.0).value ** 2 == pytest.approx(math.factorial(d), rel=1e-12)


def test_gaussian_second_and_fourth_moments():
    assert gaussian_lp_norm(1, 2.0).value ** 2 == pytest.approx(1.0, rel=1e-12)
    assert gaussian_lp_norm(1, 4.0).value ** 4 == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("k", [3, 5, 8])
def test_gaussian_higher_moments(k):
    value = gaussian_lp_norm(1, 2.0 * k).value ** (2 * k)
    assert value == pytest.approx(gaussian_even_moment(k), rel=1e-11)


@pytest.mark.parametrize("d,p", [(20, 1000.0), (100, 500.0)])
def test_gaussian_peak_past_the_roots_is_resolved(d, p):
    # for large p d, |h_d|^p exp(-y^2/2) peaks near sqrt(p d), far past the
    # largest root; a radius from the growth bound (1 + R)^(p d) exp(-R^2/2)
    # left the end rule's nodes beyond the peak, which it missed by a factor
    # of exp(5e4) while the 16/32 gap looked converged.  Away from the roots
    # the integrand is smooth, so the trapezoid rule on a window around the
    # peak (both tails, by symmetry) is an accurate reference
    spec = specfun.HermiteSpec(d)
    y = np.linspace(math.sqrt(p * d) - 50.0, math.sqrt(p * d) + 50.0, 200001)
    log_f = p * specfun.hermite_log_abs(spec, y)[1] - 0.5 * y * y - 0.5 * math.log(2.0 * math.pi)
    top = float(log_f.max())
    exact = (top + math.log(2.0 * np.trapezoid(np.exp(log_f - top), y))) / p
    nv = gaussian_lp_norm(d, p)
    assert nv.converged
    assert abs(nv.log_value - exact) <= nv.error_estimate


# -------------------------------------------------------------- subordination

@pytest.mark.parametrize("x", [0.0, 1.0, 5.0])
def test_subordination_identity(x):
    v = subordination_check(x)
    assert v.status == "holds"
    assert abs(v.margin) < 1e-10
    assert v.rhs == pytest.approx(math.exp(-x), rel=1e-15)


def test_subordination_rejects_negative():
    with pytest.raises(ValueError):
        subordination_check(-0.5)
