"""Sphere and Gaussian L^p norms against closed forms and exact oracles."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spherehc import cli, hypercheck, norms, specfun
from spherehc.norms import (
    CLOSED_FORM,
    GAUSS_GEGENBAUER,
    NormValue,
    SphereParams,
    gaussian_lp_norm,
    norm_ratio_gaussian,
    norm_ratio_sphere,
    sphere_l2_norm_closed,
    sphere_lp_norm,
    zonal_lp_norm,
    zonal_power_integral,
)
from spherehc.quadrature import ADAPTIVE, GAUSS_JACOBI, _panel_rules, integrate_piecewise, integrate_root_intervals
from spherehc.verdict import FAILS, HOLDS, INCONCLUSIVE

from oracles import (
    chebyshev_u_fourth_moment,
    hermite_fourth_moment,
    log_fraction,
    simpson_composite,
    sphere_power_integral_exact,
    zonal_power_integral_mp,
)


def _log_exact(n: int, d: int, p: int) -> float:
    """log of the exact zonal_power_integral value, the normalized integral of |C_d|^p."""
    return log_fraction(sphere_power_integral_exact(Fraction(n - 1, 2), d, p))


def _rule_means(lam, degrees, sizes, exponents):
    """``norms._rule_log_means`` as one NormValue per degree and exponent, in the root split's form."""
    by_exponent = [
        [NormValue(*pair, GAUSS_GEGENBAUER, True, 1) for pair in zip(log_mean.tolist(), rel.tolist())]
        for log_mean, rel in norms._rule_log_means(lam, degrees, sizes, exponents)
    ]
    return [list(row) for row in zip(*by_exponent)]


def test_degree_zero_norm_is_one():
    nv = sphere_lp_norm(SphereParams(5), 0, 3.3)
    assert nv.value == 1.0
    assert nv.method == CLOSED_FORM


def test_degree_one_l2_on_s2():
    nv = sphere_lp_norm(SphereParams(2), 1, 2.0)
    assert nv.value**2 == pytest.approx(1 / 3, rel=1e-12)
    assert nv.method == GAUSS_JACOBI
    closed = sphere_l2_norm_closed(SphereParams(2), 1)
    assert closed.value**2 == pytest.approx(1 / 3, rel=1e-14)


def test_closed_form_s3_degree_two():
    # the right side of the closed form at (n=3, d=2): (n-1)/(d(2d+n-1)B(n-1,d)) = 1
    # (verified against a direct quadrature oracle of (4t^2-1)^2 (2/pi) sqrt(1-t^2))
    closed = sphere_l2_norm_closed(SphereParams(3), 2)
    assert closed.value**2 == pytest.approx(1.0, rel=1e-14)
    quad = sphere_lp_norm(SphereParams(3), 2, 2.0)
    assert quad.value**2 == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("n", [13, 10**5, 10**7, 10**9])
@pytest.mark.parametrize("d", [1, 6, 40])
def test_closed_form_takes_the_shorter_product(n, d):
    # 1 / (d B(n-1, d)) = C(n - 2 + d, d); the float reference rounds its three logs
    terms = (math.log(n - 1), -math.log(2 * d + n - 1), math.log(math.comb(n - 2 + d, d)))
    closed = sphere_l2_norm_closed(SphereParams(n), d)
    assert abs(closed.log_value - 0.5 * math.fsum(terms)) <= closed.error_estimate + 2.3e-16 * sum(map(abs, terms))


def test_closed_form_memory_does_not_grow_with_n():
    # a product over j = 1..n-2 peaked at 65 MB here
    tracemalloc.start()
    try:
        sphere_l2_norm_closed(SphereParams(10**6), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_closed_form_rejects_degree_zero():
    with pytest.raises(ValueError):
        sphere_l2_norm_closed(SphereParams(4), 0)


@pytest.mark.parametrize("n", [2, 5, 13, 24, 50])
@pytest.mark.parametrize("d", [1, 4, 11, 30])
def test_closed_form_agreement_sample(n, d):
    quad = sphere_lp_norm(SphereParams(n), d, 2.0)
    closed = sphere_l2_norm_closed(SphereParams(n), d)
    assert quad.value**2 == pytest.approx(closed.value**2, rel=1e-10)


def test_quartic_norm_at_counterexample_cell():
    # ||Y_7||_4^4 on S^13 against the exact rational moment oracle
    lam = Fraction(6)
    exact = float(sphere_power_integral_exact(lam, 7, 4))
    nv = sphere_lp_norm(SphereParams(13), 7, 4.0)
    assert nv.value**4 == pytest.approx(exact, rel=1e-11)


def test_quartic_norm_matches_simpson():
    from spherehc import specfun

    spec = specfun.GegenbauerSpec(6.0, 7)
    c = specfun.c_lambda(6.0)

    def f(t):
        return np.abs(np.asarray(specfun.gegenbauer_eval(spec, t))) ** 4 * c * (1 - t * t) ** 5.5

    oracle = simpson_composite(f, -1.0, 1.0, 1_000_000)
    nv = sphere_lp_norm(SphereParams(13), 7, 4.0)
    assert nv.value**4 == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 5), (9, 2)])
def test_monotone_in_p(n, d):
    values = [sphere_lp_norm(SphereParams(n), d, p).value for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1 - 1e-12)


def test_gaussian_degree_zero_is_one():
    nv = gaussian_lp_norm(0, 3.7)
    assert nv.value == 1.0 and nv.method == CLOSED_FORM


def test_gaussian_l2_is_sqrt_factorial():
    for d in range(1, 21):
        nv = gaussian_lp_norm(d, 2.0)
        assert nv.value**2 == pytest.approx(math.factorial(d), rel=1e-10)


def test_gaussian_degree_one_l4():
    assert gaussian_lp_norm(1, 4.0).value == pytest.approx(3 ** 0.25, rel=1e-12)


@pytest.mark.parametrize("d", [2, 5, 9, 14])
def test_gaussian_l4_matches_moment_oracle(d):
    nv = gaussian_lp_norm(d, 4.0)
    assert nv.value**4 == pytest.approx(hermite_fourth_moment(d), rel=1e-10)


def test_ratio_trivial_cases():
    assert norm_ratio_sphere(SphereParams(7), 0, 2, 4).value == 1.0
    assert norm_ratio_sphere(SphereParams(7), 3, 2.5, 2.5).value == 1.0
    assert norm_ratio_gaussian(0, 2, 4).value == 1.0
    with pytest.raises(ValueError):
        norm_ratio_sphere(SphereParams(7), 3, 4, 2)


def test_ratio_consistency_with_norms():
    r = norm_ratio_gaussian(3, 2, 4)
    expected = gaussian_lp_norm(3, 4.0).value / gaussian_lp_norm(3, 2.0).value
    assert r.value == pytest.approx(expected, rel=1e-12)
    assert r.log_value == pytest.approx(math.log(expected), rel=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_ratio_approaches_gaussian(d):
    gauss = norm_ratio_gaussian(d, 2, 4).value
    gaps = [abs(norm_ratio_sphere(SphereParams(n), d, 2, 4).value - gauss) for n in (10, 100)]
    assert gaps[1] < gaps[0]


def test_large_n_stays_finite():
    nv = sphere_lp_norm(SphereParams(1000), 6, 4.0)
    assert math.isfinite(nv.log_value)
    assert nv.converged


def test_circle_cosine_norms():
    # mean of |cos|^p over a period: p=2 gives 1/2, p=4 gives 3/8
    nv = sphere_lp_norm(SphereParams(1), 3, 2.0)
    assert nv.value**2 == pytest.approx(0.5, rel=1e-12)
    assert nv.method == CLOSED_FORM
    nv4 = sphere_lp_norm(SphereParams(1), 1, 4.0)
    assert nv4.value**4 == pytest.approx(3 / 8, rel=1e-12)
    assert sphere_lp_norm(SphereParams(1), 0, 4.0).value == 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 41.0, 1e3, 1e5])
def test_circle_closed_form_band_holds_against_mpmath(p):
    from mpmath import mp

    nv = sphere_lp_norm(SphereParams(1), 5, p)
    with mp.workdps(40):
        exact = float((mp.log(mp.beta(0.5, (mp.mpf(p) + 1) / 2)) - mp.log(mp.pi)) / p)
    assert abs(nv.log_value - exact) <= nv.error_estimate < 1e-14


def test_circle_ratio():
    # ||cos||_4 / ||cos||_2 = (3/8)^(1/4) / (1/2)^(1/2), whatever the degree
    ratio = norm_ratio_sphere(SphereParams(1), 3, 2.0, 4.0)
    exact = 0.25 * math.log(3 / 8) - 0.5 * math.log(0.5)
    assert ratio.converged
    assert abs(ratio.log_value - exact) <= ratio.error_estimate


@pytest.mark.parametrize("n,d,p,q,method", [
    (1000, 6, 2.0, 5.0, ADAPTIVE),
    (13, 7, 2.0, 5.0, GAUSS_JACOBI),
    # p keeps the rule while q bisects: a mixed pair reads adaptive
    (1000, 30, 1.5, 3.0, ADAPTIVE),
    (1, 3, 2.0, 4.0, CLOSED_FORM),
    (13, 0, 2.0, 4.0, CLOSED_FORM),
])
def test_ratio_method_says_how_its_norms_were_made(n, d, p, q, method):
    ratio = norm_ratio_sphere(SphereParams(n), d, p, q)
    assert ratio.method == method and ratio.converged
    assert ratio.value == math.exp(ratio.log_value)
    # the panels of both norms' integrals, and none for a closed form
    assert ratio.panels == sum(sphere_lp_norm(SphereParams(n), d, e).panels for e in (q, p))
    assert (ratio.panels == 0) == (method == CLOSED_FORM)


@pytest.mark.parametrize("n,d,p,q", [
    (1000, 6, 2.0, 4.0),
    (13, 7, 2.0, 4.0),
    (2, 20, 4.0, 8.0),
    (100000, 2, 2.0, 64.0),
])
def test_even_ratio_takes_one_exact_rule(n, d, p, q):
    # both norms from one Gauss-Gegenbauer rule, a panel each, whatever the
    # root split would do: at (1e5, 2, 64) it misses the end bump
    ratio = norm_ratio_sphere(SphereParams(n), d, p, q)
    assert ratio.method == GAUSS_GEGENBAUER and ratio.converged
    assert ratio.panels == 2
    exact = _log_exact(n, d, int(q)) / q - _log_exact(n, d, int(p)) / p
    assert abs(ratio.log_value - exact) <= ratio.error_estimate


@pytest.mark.parametrize("q,d", [(4, 40), (6, 27), (8, 20)])
@pytest.mark.parametrize("n", [2, 3, 13, 1000])
def test_even_ratio_at_the_rule_limit_is_within_band_of_the_exact_value(n, q, d):
    # d is the highest degree whose rule has at most _RULE_NODES positive
    # nodes; one degree more takes the root split
    assert norms._rule_size(2.0, q, d) == norms._RULE_NODES and norms._rule_size(2.0, q, d + 1) is None
    ratio = norm_ratio_sphere(SphereParams(n), d, 2.0, float(q))
    assert ratio.method == GAUSS_GEGENBAUER
    assert norm_ratio_sphere(SphereParams(n), d + 1, 2.0, float(q)).method != GAUSS_GEGENBAUER
    exact = _log_exact(n, d, q) / q - _log_exact(n, d, 2) / 2
    assert abs(ratio.log_value - exact) <= ratio.error_estimate


@pytest.mark.parametrize("q,d", [(4, 8), (4, 16), (8, 4)])
@pytest.mark.parametrize("n", [2, 3, 13, 1000, 10**7])
def test_padded_rule_is_within_band_of_the_exact_value(n, q, d):
    # 9 (or 17) positive nodes are exact here, and the ladder pads the rule
    # by 7 nodes, the most any degree is padded.  A larger Gauss rule stays
    # exact, so the padded and the unpadded rule both hold every mean within
    # its band, and so does the ratio
    needed = (q // 2 * d + 2) // 2
    size = norms._rule_size(2.0, q, d)
    assert size == needed + 7
    exact = {e: _log_exact(n, d, e) for e in (q, 2)}
    for k in (size, needed):
        means = _rule_means((n - 1) / 2, [d], [k], (float(q), 2.0))[0]
        for e, mean in zip((q, 2), means):
            assert abs(mean.log_value - exact[e]) <= mean.error_estimate
    ratio = norm_ratio_sphere(SphereParams(n), d, 2.0, float(q))
    assert abs(ratio.log_value - (exact[q] / q - exact[2] / 2)) <= ratio.error_estimate


def test_s3_fourth_moment_ratio_by_the_rule_is_within_band_at_every_degree():
    # on S^3, E[U_d^4] = d + 1 and E[U_d^2] = 1, so the rule's log ratio is
    # log(d + 1) / 4 for every degree it serves
    for d in range(1, 41):
        ratio = norm_ratio_sphere(SphereParams(3), d, 2.0, 4.0)
        assert ratio.method == GAUSS_GEGENBAUER
        assert abs(ratio.log_value - math.log(chebyshev_u_fourth_moment(d)) / 4) <= ratio.error_estimate


def test_zonal_norm_of_constant():
    nv = zonal_lp_norm(SphereParams(3), [2.0], 3.0)
    assert nv.value == pytest.approx(2.0, rel=1e-12)


def test_zonal_norm_matches_single_harmonic():
    # ||0*Y_0 + 1*Y_2||_p equals the dedicated norm path
    nv = zonal_lp_norm(SphereParams(4), [0.0, 0.0, 1.0], 3.0)
    direct = sphere_lp_norm(SphereParams(4), 2, 3.0)
    assert nv.value == pytest.approx(direct.value, rel=1e-10)


def test_zonal_norm_of_one_harmonic_within_bands_of_the_dedicated_path():
    # the kinks of |C_4|^1.5 are split at the comrade-matrix roots; left to
    # bisection they put the log norm 2.2e-12 off, against a band of 5.3e-13
    nv = zonal_lp_norm(SphereParams(3), [0.0, 0.0, 0.0, 0.0, 1.0], 1.5)
    direct = sphere_lp_norm(SphereParams(3), 4, 1.5)
    assert nv.converged and direct.converged
    assert abs(nv.log_value - direct.log_value) <= nv.error_estimate + direct.error_estimate


def test_zonal_norm_past_float_overflow():
    # the integral of |C_8^499.5|^40 is about exp(1416): only its logarithm
    # fits in a float, though the norm does
    nv = zonal_lp_norm(SphereParams(1000), [0.0] * 8 + [1.0], 40.0)
    direct = sphere_lp_norm(SphereParams(1000), 8, 40.0)
    assert nv.converged
    assert nv.log_value == pytest.approx(35.45909377330079, rel=1e-14)
    assert abs(nv.log_value - direct.log_value) <= nv.error_estimate + direct.error_estimate


def test_error_estimates_are_honest():
    # reported relative error bounds the observed deviation from the closed form
    for n, d in ((3, 7), (9, 13)):
        quad = sphere_lp_norm(SphereParams(n), d, 2.0)
        closed = sphere_l2_norm_closed(SphereParams(n), d)
        observed = abs(quad.value - closed.value) / closed.value
        assert observed <= max(quad.error_estimate * 10, 1e-12)


# ------------------------------------------------------ root-interval rule

@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("n", [2, 3, 4, 13])
@pytest.mark.parametrize("d", [1, 7, 30, 40])
def test_root_interval_rule_error_is_honest(n, d, p):
    res = zonal_power_integral((n - 1) / 2, d, float(p), 1e-12)
    assert res.method == GAUSS_JACOBI and res.converged
    assert abs(res.log_value - _log_exact(n, d, p)) <= res.error_estimate


@pytest.mark.parametrize("n,d,p", [(2, 30, 1.5), (3, 30, 1.5), (3, 7, 3.0), (13, 7, 1.5), (13, 30, 3.0)])
def test_root_interval_rule_matches_adaptive_for_odd_powers(n, d, p):
    lam = (n - 1) / 2
    spec = specfun.GegenbauerSpec(lam, d)
    c = specfun.c_lambda(lam)

    def f(t):
        return np.abs(specfun.gegenbauer_eval(spec, t)) ** p * c * (1 - t * t) ** (lam - 0.5)

    ref = integrate_piecewise(f, specfun.gegenbauer_roots(spec), (-1.0, 1.0), 1e-13)
    res = zonal_power_integral(lam, d, p, 1e-13)
    assert ref.converged and res.method == GAUSS_JACOBI
    diff = abs(res.log_value - math.log(ref.value))
    assert diff <= res.error_estimate + ref.error_estimate / ref.value
    assert diff <= 1e-12


def test_steep_weight_falls_back_to_adaptive_panels():
    # at n = 1000 the end-interval weight (1 - t^2)^499.5 is too steep for 32
    # nodes; the adaptive value matches the exact one to 1e-14, which needs a
    # log c_lam free of lgamma cancellation (about 1e-13 at lam = 499.5)
    res = zonal_power_integral(499.5, 6, 4.0, 1e-12)
    assert res.method == ADAPTIVE and res.converged
    exact = _log_exact(1000, 6, 4)
    assert res.value == pytest.approx(math.exp(exact), rel=1e-14)
    assert abs(res.log_value - exact) <= res.error_estimate


@pytest.mark.parametrize("n,d,method", [(13, 7, GAUSS_JACOBI), (1000, 6, ADAPTIVE)])
def test_norm_method_tells_first_round_from_bisection(n, d, method):
    nv = sphere_lp_norm(SphereParams(n), d, 4.0)
    assert nv.method == method and nv.converged
    assert abs(nv.log_value - _log_exact(n, d, 4) / 4) <= nv.error_estimate


@pytest.mark.parametrize("n,d,p", [(30, 50, 20), (20, 40, 24)])
def test_adaptive_fallback_past_float_range(n, d, p):
    # the 16/32 gap misses tol here and the integral's log passes 709; the
    # fallback integrates relative to the rule's estimate, so it stays finite
    res = zonal_power_integral((n - 1) / 2, d, float(p), 1e-12)
    assert res.method == ADAPTIVE and res.converged
    exact = _log_exact(n, d, p)
    assert exact > 709
    assert abs(res.log_value - exact) <= res.error_estimate


# the corners of the domain the CLI accepts, read from its caps, and n = 1e5,
# the cap before large p was seen to miss the end intervals' bump there: at
# p = 2 that happens from n of a few million (at n = 1e6, d = 2000 the norm is
# already 4e-2 off in log), so raising cli.MAX_N that far fails these
_CORNERS = [(n, d) for n in (2, 3, cli.MAX_N, 10**5) for d in (1, 2, 40)]
_CORNERS += [(2, cli.MAX_DEGREE), (cli.MAX_N, cli.MAX_DEGREE), (10**5, cli.MAX_DEGREE)]


@pytest.mark.parametrize("n,d", _CORNERS)
def test_l2_norm_at_the_domain_corners_matches_the_closed_form(n, d):
    nv = sphere_lp_norm(SphereParams(n), d, 2.0)
    closed = sphere_l2_norm_closed(SphereParams(n), d)
    assert nv.converged
    assert abs(nv.log_value - closed.log_value) <= nv.error_estimate + closed.error_estimate


@pytest.mark.parametrize("d", [2, 6, 40])
def test_l4_norm_at_the_dimension_cap_matches_the_exact_integral(d):
    nv = sphere_lp_norm(SphereParams(cli.MAX_N), d, 4.0)
    assert nv.converged
    assert abs(nv.log_value - _log_exact(cli.MAX_N, d, 4) / 4) <= nv.error_estimate


# past the outermost root (1 - t^2)^(lam - 1/2) |C_d|^p is a bump that large
# p pushes away from the end rule's nodes; at n = 1e5 it is missed for d = 2
# and p 32-1000 (ROADMAP item 5), and the cap keeps the CLI below that
@pytest.mark.parametrize("d", [1, 2, 3, 6, 13, 40])
def test_large_and_non_integer_exponents_at_the_dimension_cap_match_the_mpmath_reference(d):
    lam = (cli.MAX_N - 1) / 2
    roots = specfun.gegenbauer_roots(specfun.GegenbauerSpec(lam, d))
    for p in (32, 33.3, 64, 97.5, 128, 256, 1000, 1e6):
        res = zonal_power_integral(lam, d, p, 1e-12)
        assert res.converged
        assert abs(res.log_value - zonal_power_integral_mp(cli.MAX_N, d, p, roots)) <= res.error_estimate, p


def test_non_integer_exponent_at_n_1000_matches_the_mpmath_reference():
    # |C_30|^1.5 has a kink at each of the 15 positive roots, which the
    # oracle's tanh-sinh pieces resolve (Gauss-Legendre pieces were 5.7e-12
    # off); the half interval converges in its first round
    lam = 499.5
    roots = specfun.gegenbauer_roots(specfun.GegenbauerSpec(lam, 30))
    res = zonal_power_integral(lam, 30, 1.5, 1e-12)
    assert res.converged and res.method == GAUSS_JACOBI
    assert abs(res.log_value - zonal_power_integral_mp(1000, 30, 1.5, roots)) <= res.error_estimate


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the end interval's bump is missed at n = 1e5")
def test_large_exponent_past_the_dimension_cap_matches_the_exact_integral():
    # the library has no cap: the result is 248.8 below the exact log
    res = zonal_power_integral((10**5 - 1) / 2, 2, 64.0, 1e-12)
    assert abs(res.log_value - _log_exact(10**5, 2, 64)) <= res.error_estimate


@pytest.mark.parametrize("d", [7, 40, 300, 1000])
def test_s3_fourth_moment_and_ratio_lie_within_their_bands(d):
    # on S^3, E[U_d^4] = d + 1 and E[U_d^2] = 1 exactly, so the L^4/L^2 log
    # ratio is log(d + 1) / 4 at any degree
    exact = math.log(chebyshev_u_fourth_moment(d))
    res = zonal_power_integral(1.0, d, 4.0, 1e-12)
    assert res.converged
    assert abs(res.log_value - exact) <= res.error_estimate
    v = hypercheck.count1_check(3, d, 2, 4)
    assert v.status == HOLDS
    assert abs(v.lhs - exact / 4) <= v.numeric_error


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the recurrence floor is too small near the ends")
def test_s3_fourth_moment_at_the_degree_cap_lies_within_its_band():
    # claims convergence with a band of 2.12e-11 but is 3.43e-11 off
    res = zonal_power_integral(1.0, cli.MAX_DEGREE, 4.0, 1e-10)
    assert res.converged
    assert abs(res.log_value - math.log(chebyshev_u_fourth_moment(cli.MAX_DEGREE))) <= res.error_estimate


@pytest.mark.parametrize("d", [171, 200, 400])
def test_l2_norm_past_factorial_overflow_matches_closed_form(d):
    # from d = 171 on, d! passes the float range; the integrand |P_d|^2 on
    # S^2 carries no such factor, so neither the value nor the rounding term
    # of the band grows with log d!.  A profile scaled by d! / (2 lam)^(d/2)
    # gave a band of 2.15e-12 and a gap of 1.7e-13 at d = 400
    quad = sphere_lp_norm(SphereParams(2), d, 2.0)
    closed = sphere_l2_norm_closed(SphereParams(2), d)
    band = quad.error_estimate + closed.error_estimate
    assert quad.method == GAUSS_JACOBI and quad.converged
    assert abs(quad.log_value - closed.log_value) <= min(band, 1e-14)
    assert band <= 1e-12


def test_gap_below_an_ulp_of_the_log_integral_converges():
    # log|400! P_400| to the 4th power integrates to about 7990, where one ulp
    # (9.1e-13) is close to tol: a 16/32 gap within tol plus the log-sum
    # rounding is accepted, and the value agrees with the adaptive panels
    # within the two bands
    spec = specfun.GegenbauerSpec(0.5, 400)
    ab = specfun._gegenbauer_ab(0.5, 400)

    def log_abs(t):
        return specfun._log_abs(ab, t)[1] + math.lgamma(401.0)

    roots = specfun.gegenbauer_roots(spec)
    (res,) = integrate_root_intervals(log_abs, roots, (4.0,), 0.0, 1e-12)
    assert res.method == GAUSS_JACOBI and res.converged
    assert res.log_value > 4096

    # relative to exp(res.log_value), so the panels' integrand fits a float
    def f(t):
        return np.exp(4.0 * log_abs(t) - res.log_value)

    ref = integrate_piecewise(f, roots, (-1.0, 1.0), 1e-12)
    assert ref.converged
    assert abs(math.log(ref.value)) <= res.error_estimate + ref.error_estimate / ref.value


@pytest.mark.parametrize("p,q", [(2.0, 4.0), (2.0, 5.0), (1.5, 3.0), (3.0, 6.0)])
@pytest.mark.parametrize("d", [1, 7, 30])
@pytest.mark.parametrize("n", [2, 3, 13, 1000])
def test_one_pass_ratio_matches_two_norms(n, d, p, q):
    # a root-split ratio is exactly its two norms, each from sphere_lp_norm:
    # at n = 1000 the exponents fall back to adaptive panels one by one (at
    # d = 30, p = 1.5 keeps the rule while q = 3 falls back).  (2, 4) takes
    # the exact rule, so there the ratio is exactly the rule's own two norms,
    # and it lies within the two root-split norms' own band
    ratio = norm_ratio_sphere(SphereParams(n), d, p, q)
    split_q, split_p = (sphere_lp_norm(SphereParams(n), d, e) for e in (q, p))
    size = norms._rule_size(p, q, d)
    if size is None:
        nq, np_ = split_q, split_p
    else:
        means = _rule_means((n - 1) / 2, [d], [size], (q, p))[0]
        nq, np_ = map(norms._norm_from_integral, means, (q, p))
        split_band = split_q.error_estimate + split_p.error_estimate
        assert abs(ratio.log_value - (split_q.log_value - split_p.log_value)) <= split_band
    assert ratio.converged
    assert ratio.log_value == nq.log_value - np_.log_value
    assert ratio.error_estimate == nq.error_estimate + np_.error_estimate


def test_jacobi_rule_cache_is_bounded():
    limit = _panel_rules.cache_info().maxsize
    assert limit is not None
    for k in range(limit + 8):
        _panel_rules(0.5 + k, 2.0)
    assert _panel_rules.cache_info().currsize <= limit


def test_exact_rule_cache_is_bounded():
    limit = norms._exact_rules.cache_info().maxsize
    assert limit == 256
    for n in range(2, limit + 10):
        norm_ratio_sphere(SphereParams(n), 1, 2.0, 4.0)
    assert norms._exact_rules.cache_info().currsize <= limit


def test_cached_exact_rules_reject_writes():
    for array in (array for pair in norms._exact_rules(1.0, (16, 8)) for array in pair):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("d", [-1, -2, 2.5, 2.0, np.float64(3.0)])
@pytest.mark.parametrize("p,q", [(2.0, 4.0), (1.5, 3.0), (3.0, 3.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_a_bad_degree_is_refused_on_every_sphere_and_pair_and_builds_no_rule(n, p, q, d):
    # a float degree is refused even when it is integral, as by count1_check
    norms._exact_rules.cache_clear()
    with pytest.raises(ValueError, match="degree"):
        norm_ratio_sphere(SphereParams(n), d, p, q)
    with pytest.raises(ValueError, match="degree"):
        sphere_lp_norm(SphereParams(n), d, p)
    assert norms._exact_rules.cache_info().currsize == 0
    assert norm_ratio_sphere(SphereParams(n), np.int64(2), p, q) == norm_ratio_sphere(SphereParams(n), 2, p, q)


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4.0), "3", 0, -2])
def test_a_bad_sphere_dimension_is_refused_and_builds_no_rule(n):
    # the dimension of S^n is an integer, as count1_check requires
    norms._exact_rules.cache_clear()
    with pytest.raises(ValueError, match="dimension"):
        norm_ratio_sphere(SphereParams(n), 3, 2, 4)
    assert norms._exact_rules.cache_info().currsize == 0


def test_a_numpy_integer_sphere_dimension_is_stored_as_an_int():
    params = SphereParams(np.int64(5))
    assert type(params.n) is int and params == SphereParams(5)
    assert norm_ratio_sphere(params, 3, 2, 4) == norm_ratio_sphere(SphereParams(5), 3, 2, 4)


@pytest.mark.parametrize("call", [
    lambda: gaussian_lp_norm(2.5, 2),
    lambda: gaussian_lp_norm(-1, 2),
    lambda: gaussian_lp_norm(2.0, 2),
    lambda: norm_ratio_gaussian(2.5, 2, 4),
    lambda: norm_ratio_gaussian(-1, 2, 2),
    lambda: norm_ratio_gaussian(-1, 2, 4),
    lambda: sphere_l2_norm_closed(SphereParams(3), 2.5),
    lambda: sphere_l2_norm_closed(SphereParams(3), 0),
    lambda: sphere_l2_norm_closed(SphereParams(3), -1),
])
def test_gaussian_and_closed_form_norms_refuse_a_bad_degree(call):
    with pytest.raises(ValueError, match="degree"):
        call()


def test_gaussian_and_closed_form_norms_take_numpy_integer_degrees():
    assert gaussian_lp_norm(np.int32(3), 4.0) == gaussian_lp_norm(3, 4.0)
    assert norm_ratio_gaussian(np.int64(3), 2, 4) == norm_ratio_gaussian(3, 2, 4)
    assert sphere_l2_norm_closed(SphereParams(3), np.int64(2)) == sphere_l2_norm_closed(SphereParams(3), 2)


def _bits(value):
    """A NormValue's fields, each float as its hex string."""
    return tuple(x.hex() if isinstance(x, float) else x for x in vars(value).values())


@pytest.mark.parametrize("q", [4.0, 8.0])
@pytest.mark.parametrize("n", [2, 3, 13, 1000, 5 * 10**4, 10**7])
def test_rule_ratios_on_arrays_are_bitwise_the_scalar_steps(n, q):
    # the array assembly of _sphere_ratios against _ratio and
    # _norm_from_integral on _rule_means, degree by degree, every field
    degrees = [d for d in range(60, 0, -1) if norms._rule_size(2.0, q, d) is not None]
    assert degrees == list(range(40 if q == 4 else 20, 0, -1))
    lam = (n - 1) / 2
    ratios = norms._sphere_ratios(lam, degrees, 2.0, q, 1e-12)
    means = _rule_means(lam, degrees, [norms._rule_size(2.0, q, d) for d in degrees], (q, 2.0))
    for d, pair in zip(degrees, means):
        scalar = norms._ratio(*map(norms._norm_from_integral, pair, (q, 2.0)))
        assert _bits(ratios[d]) == _bits(scalar)
        assert ratios[d].method == GAUSS_GEGENBAUER and ratios[d].panels == 2


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_rule_mean_raises_on_arrays_as_on_scalars(monkeypatch, bad):
    log_means = norms._rule_log_means

    def spoiled(*args):
        out = log_means(*args)
        out[1][0][3] = bad
        return out

    monkeypatch.setattr(norms, "_rule_log_means", spoiled)
    with pytest.raises(ArithmeticError, match="not a finite number"):
        norms._sphere_ratios(1.0, range(1, 11), 2.0, 4.0, 1e-12)
    with pytest.raises(ArithmeticError, match="not a finite number"):
        norms._norm_from_integral(norms.NormValue(bad, 0.0, GAUSS_GEGENBAUER), 2.0)


def test_lyapunov_flag_is_the_same_on_arrays_and_scalars():
    # a ratio below 1 past its band is not converged, one just inside it is
    log_q, log_p, rel = np.array([-1e-3, -1e-13, 0.0]), np.zeros(3), np.full(3, 1e-13)
    flags = norms._log_ratio(log_q, rel, log_p, rel)[2].tolist()
    assert flags == [norms._log_ratio(*map(float, row))[2] for row in zip(log_q, rel, log_p, rel)]
    assert flags == [False, True, True]


@pytest.mark.parametrize("n,d", [(2, 58), (13, 74), (13, 100), (2, 100)])
def test_quartic_norm_past_float_overflow(n, d):
    # |G_d|^4 overflows a float here; the log-space sum must not
    nv = sphere_lp_norm(SphereParams(n), d, 4.0)
    exact = log_fraction(sphere_power_integral_exact(Fraction(n - 1, 2), d, 4)) / 4
    assert nv.converged
    assert abs(nv.log_value - exact) <= nv.error_estimate


# ------------------------------------------------- Jacobi-panel adaptive path

def _l2_closed_log_mpmath(n: int, d: int) -> float:
    from mpmath import mp

    with mp.workdps(40):
        return float(0.5 * (mp.log(n - 1) - mp.log(d) - mp.log(2 * d + n - 1) - mp.log(mp.beta(n - 1, d))))


@pytest.mark.parametrize("d", [1, 30, 171, 200, 400])
@pytest.mark.parametrize("n", [2, 3, 13, 1000, 5000])
def test_l2_closed_form_band_holds_against_mpmath(n, d):
    # a difference of lgamma values was 5e-14 off at (2, 400) and 7e-13 at
    # n = 1000, outside the 5e-15 it claimed
    closed = sphere_l2_norm_closed(SphereParams(n), d)
    assert abs(closed.log_value - _l2_closed_log_mpmath(n, d)) <= closed.error_estimate


def test_l2_closed_form_band_is_tight():
    # the true error at (1000, 1) is about 2e-16; a band of eps per term
    # and per unit of |term| gave 2.3e-13 there
    assert sphere_l2_norm_closed(SphereParams(1000), 1).error_estimate < 1e-14


def test_l2_closed_form_past_float_range():
    # ||Y_400||_2 on S^5000 passes the float range: value is inf, the log
    # stays finite and exact, and utol1_check still gives a verdict
    closed = sphere_l2_norm_closed(SphereParams(5000), 400)
    assert closed.value == math.inf
    assert abs(closed.log_value - _l2_closed_log_mpmath(5000, 400)) <= closed.error_estimate
    assert hypercheck.utol1_check(5000, 400).status in (HOLDS, FAILS, INCONCLUSIVE)


# log norms by the Gauss-Legendre panels (all exponents 0) and their bands
_LEGENDRE_GAUSSIAN = {20: (20.384620868763573, 6.407912290767321e-13), 40: (54.19984320164735, 6.636010028373118e-13)}


@pytest.mark.parametrize("d", [20, 40])
def test_gaussian_kink_panels_match_legendre_panels(d):
    nv = gaussian_lp_norm(d, 1.5)
    ref, band = _LEGENDRE_GAUSSIAN[d]
    assert nv.converged
    assert abs(nv.log_value - ref) <= nv.error_estimate + band


def test_zonal_fallback_panels_match_legendre_panels():
    # (n, d, p) = (1000, 30, 1.5): 432 Legendre panels gave this log integral
    # of the scaled profile d!/(2 lam)^(d/2) C_d(s/sqrt(2 lam)) against the
    # bare weight; it is converted to the normalized integral of |C_d|^p
    ref = 52.439212310665624 + 1.5 * (15.0 * math.log(999.0) - math.lgamma(31.0)) + math.log(specfun.c_lambda(499.5))
    res = zonal_power_integral(499.5, 30, 1.5, 1e-12)
    assert res.converged and res.panels < 100
    assert abs(res.log_value - ref) <= res.error_estimate + 9.99877582912462e-13


@pytest.mark.parametrize("p,d", [(p, d) for p in (2, 4) for d in (2, 9, 20, 40)] + [(4, 80), (2, 180), (2, 2000), (4, 2000)])
def test_gaussian_even_norms_within_band_of_oracle(p, d):
    moment = math.factorial(d) if p == 2 else hermite_fourth_moment(d)
    exact = log_fraction(Fraction(moment)) / p
    nv = gaussian_lp_norm(d, float(p))
    assert nv.converged
    assert abs(nv.log_value - exact) <= nv.error_estimate


@pytest.mark.parametrize("n,d,p", [(500, 12, 2), (1000, 30, 2), (1000, 30, 4), (2000, 20, 4), (5000, 8, 4)])
def test_fallback_even_powers_within_band_of_oracle(n, d, p):
    res = zonal_power_integral((n - 1) / 2, d, float(p), 1e-12)
    assert res.method == ADAPTIVE and res.converged
    assert abs(res.log_value - _log_exact(n, d, p)) <= res.error_estimate


@pytest.mark.parametrize("n", [10001, 100000])
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("p", [2, 4])
def test_sphere_norms_at_steep_weights_within_band_of_oracle(n, d, p):
    # e = lam - 1/2 multiplies the rounding of the end weight's logarithm,
    # which the 16/32 gap does not see
    nv = sphere_lp_norm(SphereParams(n), d, float(p))
    exact = log_fraction(sphere_power_integral_exact(Fraction(n - 1, 2), d, p)) / p
    assert nv.converged
    assert abs(nv.log_value - exact) <= nv.error_estimate


def test_zonal_lp_norm_whose_integral_underflows_keeps_its_log():
    # the integral 1e-400 underflows to 0.0; its log, and so the norm, does not
    nv = zonal_lp_norm(SphereParams(3), [1e-200], 2.0)
    assert nv.converged
    assert abs(nv.log_value - math.log(1e-200)) <= nv.error_estimate


@pytest.mark.parametrize("n", [1500, 5000, 100000])
def test_zonal_lp_norm_at_steep_weights_within_band(n):
    # ||1 + a Y_1 + b Y_2||_2^2 = 1 + a^2 ||Y_1||_2^2 + b^2 ||Y_2||_2^2; the
    # panels carry Jacobi rules with alpha + beta up to 1e5, whose mu0 would
    # overflow outside log space
    coeffs = (1.0, 0.5, -0.25)
    squares = [sphere_power_integral_exact(Fraction(n - 1, 2), k, 2) for k in (1, 2)]
    exact = log_fraction(1 + Fraction(1, 4) * squares[0] + Fraction(1, 16) * squares[1]) / 2
    nv = zonal_lp_norm(SphereParams(n), coeffs, 2.0)
    assert nv.converged
    assert abs(nv.log_value - exact) <= nv.error_estimate
