"""Semigroup conditions, the lemma, entropy inequalities, and the scanner."""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherehc import hypercheck, norms, quadrature, specfun
from spherehc.hypercheck import (
    ExponentPair,
    NonnegativityError,
    RHS_BECKNER,
    RHS_SQRT_EIGENVALUE,
    ZonalPolynomial,
    beckner_constant,
    count1_check,
    count1_checks,
    counterexample_scan,
    eigenvalue_sqrt_laplacian,
    entropy_functional,
    h_function,
    heat_condition,
    hermite_bound_check,
    hermite_growth_rate,
    lemma_all,
    lemma_check,
    lemma_table,
    logsob_check,
    perturbative_necessity,
    poisson_condition_ii,
    poisson_semigroup_apply,
    random_zonal_polynomial,
    utol1_check,
)
from spherehc.norms import SphereParams, sphere_l2_norm_closed, sphere_lp_norm
from spherehc.quadrature import ADAPTIVE, GAUSS_JACOBI, integrate_piecewise
from spherehc.verdict import FAILS, HOLDS, INCONCLUSIVE, Verdict, rounding_allowance

from oracles import hermite_fourth_moment, log_fraction, sphere_power_integral_exact, xlogx


# ----------------------------------------------------------------- spectrum

def test_eigenvalue_sqrt_laplacian():
    assert eigenvalue_sqrt_laplacian(9, 0) == 0.0
    assert eigenvalue_sqrt_laplacian(7, 1) == pytest.approx(math.sqrt(7), rel=1e-15)
    assert eigenvalue_sqrt_laplacian(13, 7) == pytest.approx(math.sqrt(133), rel=1e-15)


def test_exponent_pair():
    pair = ExponentPair(2, 4)
    assert pair.t_star(4) == pytest.approx(math.log(3) / 4, rel=1e-15)
    assert math.exp(-2 * pair.t_star(9) * 3) == pytest.approx(1 / 3, rel=1e-13)
    with pytest.raises(ValueError):
        ExponentPair(1.0, 2.0)
    with pytest.raises(ValueError):
        ExponentPair(3.0, 2.0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension"):
            pair.t_star(n)


# ---------------------------------------------------------------- semigroup

def test_semigroup_identity_and_multiplier():
    g = ZonalPolynomial(5, (0.3, -0.7, 0.0, 0.2))
    same = poisson_semigroup_apply(g, 0.0)
    assert same.coeffs == g.coeffs
    one = poisson_semigroup_apply(ZonalPolynomial(9, (0.0, 1.0)), 0.25)
    assert one.coeffs[1] == pytest.approx(math.exp(-0.25 * math.sqrt(9)), rel=1e-15)
    const = poisson_semigroup_apply(ZonalPolynomial(9, (2.5,)), 3.0)
    assert const.coeffs == (2.5,)


def test_semigroup_law():
    g = ZonalPolynomial(4, (1.0, 0.5, -0.25, 0.125, 0.3))
    lhs = poisson_semigroup_apply(poisson_semigroup_apply(g, 0.3), 0.9)
    rhs = poisson_semigroup_apply(g, 1.2)
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        assert a == pytest.approx(b, rel=1e-12)


def test_semigroup_strictly_contracts_nonconstant_modes():
    g = ZonalPolynomial(3, (1.0, 0.5, 0.5))
    out = poisson_semigroup_apply(g, 0.1)
    assert out.coeffs[0] == 1.0
    assert all(abs(out.coeffs[k]) < abs(g.coeffs[k]) for k in (1, 2))


def test_lp_contraction_property():
    # ~10^3 random nonnegative zonal polynomials across the (p, t) combinations
    rng = np.random.default_rng(20240817)
    combos = [(p, t) for p in (1.5, 2.0, 3.0) for t in (0.1, 1.0)]
    for trial in range(1002):
        n = 2 if trial % 2 == 0 else 3
        p, t = combos[trial % len(combos)]
        g = random_zonal_polynomial(n, 6, rng)
        before = norms.zonal_lp_norm(SphereParams(n), g.coeffs, p, tol=1e-10)
        after = norms.zonal_lp_norm(
            SphereParams(n), poisson_semigroup_apply(g, t).coeffs, p, tol=1e-10
        )
        assert after.value <= before.value * (1 + 1e-9)


def test_zonal_polynomial_validation():
    with pytest.raises(ValueError):
        ZonalPolynomial(3, (0.0, 0.0))
    with pytest.raises(ValueError):
        ZonalPolynomial(0, (1.0,))


# --------------------------------------------------------- closed conditions

def test_heat_condition_cases():
    assert heat_condition(3, 2, 4, 10.0).status == HOLDS
    assert heat_condition(3, 2, 4, 0.0).status == FAILS
    boundary = heat_condition(1, 2, 4, math.log(math.sqrt(3)))
    assert boundary.status == HOLDS
    assert abs(boundary.margin) < 1e-15


def test_poisson_condition_boundary():
    pair = ExponentPair(2, 4)
    for n in (1, 4, 9, 13):
        t = pair.t_star(n)
        at = poisson_condition_ii(n, 2, 4, t)
        assert at.status == HOLDS and abs(at.margin) < 1e-14
        assert poisson_condition_ii(n, 2, 4, t * 1.01).status == HOLDS
        assert poisson_condition_ii(n, 2, 4, t * 0.99).status == FAILS
    exact = poisson_condition_ii(4, 2, 4, math.log(3) / 4)
    assert exact.status == HOLDS and abs(exact.margin) < 1e-15


def test_condition_edge_exponents():
    # p = q means the ratio bound is 1: contraction, holds for every t
    assert heat_condition(2, 3, 3, 0.0).status == HOLDS
    # p = 1 < q makes the right side zero: impossible for finite t
    assert heat_condition(2, 1, 4, 5.0).status == FAILS


# -------------------------------------------------------------------- lemma

def test_lemma_equality_at_k1():
    for n in (2, 3, 4, 7):
        v = lemma_check(n, 1)
        assert v.status == HOLDS
        assert abs(v.margin) < 1e-14


def test_lemma_small_cases():
    v = lemma_check(2, 2)
    assert v.lhs == pytest.approx(1.5, rel=1e-15)
    assert v.rhs == pytest.approx(math.sqrt(3), rel=1e-15)
    assert v.status == HOLDS
    assert lemma_check(3, 2).status == HOLDS
    assert lemma_check(4, 3).status == FAILS


def test_lemma_holds_everywhere_small_dimensions():
    for n in (2, 3):
        table = lemma_table(n, 2000)
        assert all(v.status == HOLDS for v in table)


def test_lemma_table_matches_pointwise():
    table = lemma_table(5, 50)
    for k in (1, 7, 50):
        v = lemma_check(5, k)
        assert table[k - 1].lhs == pytest.approx(v.lhs, rel=1e-12)
        assert table[k - 1].rhs == v.rhs
        assert table[k - 1].status == v.status


@pytest.mark.parametrize("n", range(1, 9))
def test_lemma_all_agrees_with_the_table(n):
    table = lemma_table(n, 2000)
    failing = [k for k, v in enumerate(table, start=1) if v.status == FAILS]
    result = lemma_all(n)
    assert result.status == (FAILS if failing else HOLDS)
    if failing:
        assert result.k == failing[0]


def test_lemma_all_decides_small_dimensions():
    assert lemma_all(2) == (HOLDS, 2)
    assert lemma_all(3) == (HOLDS, 4)
    assert lemma_all(4) == (FAILS, 2)


def test_lemma_certificate_coefficients():
    # P(k0 + s) in s, exactly; on S^2, P(1) = 1 * 9 - 8 * 2 = -7
    for n, k0 in ((2, 2), (3, 4)):
        assert all(isinstance(c, Fraction) and c > 0 for c in hypercheck._monotonicity_coefficients(n, k0))
    assert hypercheck._monotonicity_coefficients(2, 1)[0] == -7


def test_h_function_frozen_values():
    assert h_function(2, 4) == pytest.approx(1 + 2 * math.log(2) - math.sqrt(10), rel=1e-14)
    assert h_function(3, 4) == pytest.approx((2 + 3 * math.log(3) - 4 * math.sqrt(2)) / 3, rel=1e-14)
    assert h_function(2, 4) < 0 and h_function(3, 4) < 0


@pytest.mark.parametrize("n", [2, 3])
def test_h_function_decreasing(n):
    ks = list(range(4, 10_001, 37)) + [10_000]
    values = [h_function(n, k) for k in ks]
    for a, b in zip(values, values[1:]):
        assert b < a


def test_beckner_constant():
    assert beckner_constant(5, 0) == 0.0
    assert beckner_constant(9, 1) == pytest.approx(2.0, rel=1e-15)
    assert beckner_constant(2, 3) == pytest.approx(11 / 3, rel=1e-15)


def test_lemma_matches_logsob_coefficient_ordering():
    # lemma margin sign == sign of 2 sqrt(k(k+n-1)/n) - Delta_n(k), all cells
    for n in range(1, 11):
        table = lemma_table(n, 1000)
        for k, v in enumerate(table, start=1):
            delta = beckner_constant(n, k)
            gap = 2.0 * math.sqrt(k * (k + n - 1) / n) - delta
            assert gap == pytest.approx(2.0 * v.margin, rel=1e-9, abs=1e-9)
            if v.status == HOLDS:
                assert gap >= -1e-12


# ------------------------------------------------------------------ entropy

def test_entropy_of_constant_is_zero():
    assert entropy_functional(ZonalPolynomial(2, (3.0,))) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_entropy_taylor_expansion(n):
    y1_sq = math.exp(2 * sphere_l2_norm_closed(SphereParams(n), 1).log_value)
    for eps in (1e-2, 1e-3):
        got = entropy_functional(ZonalPolynomial(n, (1.0, eps)), tol=1e-12)
        assert got == pytest.approx(2 * eps * eps * y1_sq, rel=1e-4)


def test_entropy_matches_tight_legendre_reference():
    # Jacobi end panels at tol 1e-10 against plain Legendre panels at tol 1e-14
    rng = np.random.default_rng(2718)
    for trial in range(250):
        n = 2 + trial % 2
        g = random_zonal_polynomial(n, 8, rng)
        value, err, converged, terms = hypercheck._entropy_with_error(g, 1e-10)
        lam = (n - 1) / 2
        c = specfun.c_lambda(lam)

        def f(t):
            usq = np.asarray(specfun.gegenbauer_series(lam, np.asarray(g.coeffs), t)) ** 2
            return xlogx(usq) * c * (1 - t * t) ** (lam - 0.5)

        ref = integrate_piecewise(f, [], (-1.0, 1.0), 1e-14)
        mass = math.fsum(terms)
        assert converged and ref.converged
        assert abs(value - (ref.value - mass * math.log(mass))) <= err + ref.error_estimate


def test_entropy_scaling_homogeneity():
    g1 = ZonalPolynomial(3, (1.0, 0.4, 0.2))
    g2 = ZonalPolynomial(3, (3.0, 1.2, 0.6))
    assert entropy_functional(g2) == pytest.approx(9 * entropy_functional(g1), rel=1e-9)


def test_entropy_whose_mass_underflows_raises_arithmetic_error():
    # a_0^2 + a_1^2 ||Y_1||_2^2 is 0.0 in floats: its log would be a ValueError
    with pytest.raises(ArithmeticError, match="mass"):
        entropy_functional(ZonalPolynomial(3, (1e-200, 1e-201)))


def test_entropy_past_the_float_range_raises_arithmetic_error():
    # the mass is finite, but u^2 log u^2 overflows near t = 1
    g = ZonalPolynomial(3, (1.3e154, 1e153))
    with pytest.raises(ArithmeticError, match="entropy is "):
        entropy_functional(g)
    with pytest.raises(ArithmeticError, match="entropy is "):
        logsob_check(g, RHS_BECKNER)


def test_entropy_rejects_negative_polynomials():
    with pytest.raises(NonnegativityError):
        entropy_functional(ZonalPolynomial(2, (0.0, 1.0)))


def test_entropy_rejects_a_dip_between_grid_points():
    # u = (t - 2^-12)^2 - 5e-8 on S^2: least at t = 2^-12, between the
    # points of a 4,097-point grid, where its least value is +9.6e-9
    g = ZonalPolynomial(2, (1 / 3 + 2**-24 - 5e-8, -(2**-11), 2 / 3))
    assert min(g.profile(np.linspace(-1.0, 1.0, 4097))) > 0.0
    with pytest.raises(NonnegativityError, match="-5.000e-08"):
        entropy_functional(g)


def test_logsob_constant_is_boundary():
    v = logsob_check(ZonalPolynomial(2, (2.0,)), RHS_BECKNER)
    assert v.status != FAILS
    assert abs(v.margin) < 1e-12
    assert v.rhs == 0.0


@pytest.mark.parametrize("rhs_kind", [RHS_BECKNER, RHS_SQRT_EIGENVALUE])
def test_logsob_constant_holds_exactly(rhs_kind):
    # a constant g has entropy 0 and only zero terms in the sum, so the
    # verdict is exact; a quadrature lhs of about 1e-15 was inconclusive
    v = logsob_check(ZonalPolynomial(3, (3.0, 0.0, 0.0)), rhs_kind)
    assert v.status == HOLDS and v.lhs == v.rhs == 0.0
    with pytest.raises(NonnegativityError):
        logsob_check(ZonalPolynomial(3, (-3.0,)), rhs_kind)


@pytest.mark.parametrize("rhs_kind", [RHS_BECKNER, RHS_SQRT_EIGENVALUE])
def test_logsob_small_perturbation(rhs_kind):
    # both coefficient families equal 2 at k=1, so the margin is higher order
    for n in (2, 3):
        eps = 1e-3
        v = logsob_check(ZonalPolynomial(n, (1.0, eps)), rhs_kind, tol=1e-12)
        assert v.status != FAILS
        assert abs(v.margin) < 10 * eps**3


def test_logsob_rejects_unknown_kind():
    with pytest.raises(ValueError):
        logsob_check(ZonalPolynomial(2, (1.0,)), "bogus")


def test_logsob_random_sample_holds():
    rng = np.random.default_rng(99)
    for trial in range(40):
        n = 2 if trial % 2 == 0 else 3
        g = random_zonal_polynomial(n, 8, rng)
        for kind in (RHS_BECKNER, RHS_SQRT_EIGENVALUE):
            assert logsob_check(g, kind).status == HOLDS


def test_logsob_entropies_start_at_the_critical_points(monkeypatch):
    # the 250 degree-8 inputs of the logsob benchmark at seed 7: split at the
    # real roots of g', where u^2 log u^2 is least smooth, their entropies
    # take 406 integrand calls (1,001 when bisection has to find those
    # points), and the split costs no eigen-solve beyond the sign check's
    rng = np.random.default_rng(7)
    polys = [random_zonal_polynomial(2 if i % 2 == 0 else 3, 8, rng) for i in range(250)]
    calls = []
    solves = []
    integrate, series_roots = hypercheck.integrate_piecewise, specfun._series_roots

    def counted(f, *args, **kwargs):
        return integrate(lambda t: calls.append(t.size) or f(t), *args, **kwargs)

    def solving(*args):
        solves.append(args)
        return series_roots(*args)

    monkeypatch.setattr(hypercheck, "integrate_piecewise", counted)
    monkeypatch.setattr(specfun, "_series_roots", solving)
    for g in polys:
        entropy_functional(g)
    assert len(solves) == 250
    assert len(calls) <= 450


def test_random_zonal_polynomials_are_nonnegative():
    rng = np.random.default_rng(5)
    grid = np.linspace(-1, 1, 1001)
    for _ in range(25):
        g = random_zonal_polynomial(3, 8, rng)
        assert float(np.min(np.asarray(g.profile(grid)))) >= 0.0


def test_random_zonal_polynomials_clear_zero_at_high_degree():
    # the 2,049-point grid alone missed dips near +-1 down to -8.7 here
    for seed in range(6):
        for n in (2, 3):
            hypercheck._require_nonnegative(random_zonal_polynomial(n, 300, np.random.default_rng(seed)))


def test_random_zonal_polynomial_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="degree"):
        random_zonal_polynomial(2, -1, np.random.default_rng(0))


# -------------------------------------------------------------- necessity

def test_necessity_zero_perturbation():
    r = perturbative_necessity(2, 2, 4, 0.3, 0.0)
    for value in (r.measured_lhs, r.measured_rhs, r.predicted_lhs, r.predicted_rhs):
        assert value == pytest.approx(1.0, abs=1e-13)
    assert r.converged and 0.0 < r.band < 1e-14


def test_necessity_taylor_accuracy_and_decay():
    # measured minus predicted vanishes at least cubically (the witness's
    # symmetry actually makes it quartic: odd profile moments vanish)
    pair = ExponentPair(2, 4)
    t = pair.t_star(2)
    eps_list = [0.1, 0.03, 0.01]
    diffs_lhs, diffs_rhs = [], []
    for eps in eps_list:
        r = perturbative_necessity(2, 2, 4, t, eps, tol=1e-13)
        diffs_lhs.append(abs(r.measured_lhs - r.predicted_lhs))
        diffs_rhs.append(abs(r.measured_rhs - r.predicted_rhs))
        assert diffs_lhs[-1] <= 5 * eps**3
        assert diffs_rhs[-1] <= 5 * eps**3
    for diffs in (diffs_lhs, diffs_rhs):
        slope = np.polyfit(np.log10(eps_list), np.log10(diffs), 1)[0]
        assert slope >= 2.7


def test_necessity_below_critical_time_breaks_contraction():
    pair = ExponentPair(2, 4)
    t = 0.97 * pair.t_star(2)
    for eps in (1e-2, 1e-3):
        r = perturbative_necessity(2, 2, 4, t, eps)
        assert r.measured_lhs > r.measured_rhs


def test_necessity_rejects_large_perturbations():
    with pytest.raises(NonnegativityError):
        perturbative_necessity(5, 2, 4, 0.1, 0.3)


# -------------------------------------------------- counterexample machinery

def test_count1_ratio_below_one_is_inconclusive():
    # Lyapunov: ||f||_41 >= ||f||_2 on a probability space.  At n = 1e5 the
    # missed end bump (ROADMAP item 5) gives log ratio -0.401, and a holds
    # where the true lhs exceeds the rhs 2.608
    v = count1_check(100000, 2, 2, 41)
    assert v.lhs < 0 and v.status == INCONCLUSIVE


@pytest.mark.parametrize("n,d,q", [(100000, 2, 40), (10**7, 6, 4)])
def test_count1_even_pair_past_the_dimension_cap_fails_within_band_of_the_exact_value(n, d, q):
    # the exact rule sees the end bump that the root split misses at these n:
    # at (1e5, 2, 2, 40) the true lhs is 3.031, above the rhs 2.591, and at
    # (1e7, 6, 2, 4) it is 2.616978, next to the Gaussian limit 2.616980
    v = count1_check(n, d, 2, q)
    lam = Fraction(n - 1, 2)
    exact = (
        log_fraction(sphere_power_integral_exact(lam, d, q)) / q
        - log_fraction(sphere_power_integral_exact(lam, d, 2)) / 2
    )
    assert v.status == FAILS
    assert abs(v.lhs - exact) <= v.numeric_error


def test_count1_degree_one_holds():
    for n in (2, 5, 13, 50):
        v = count1_check(n, 1, 2, 4)
        assert v.status == HOLDS


def test_count1_fails_at_paper_cell():
    v = count1_check(13, 7, 2, 4)
    assert v.status == FAILS
    assert abs(v.margin) > 10 * v.numeric_error


def test_count1_band_at_paper_cell_weighs_summands_by_share():
    # on the root split, the band takes each summand's log rounding weighted
    # by its share of the sum, and no fixed floor per norm: the largest
    # summand size over all nodes and a 5e-15 floor per norm gave 6.56e-14
    # for the same lhs.  count1_check took this path for (2, 4) before the
    # exact rule, and sphere_lp_norm still does
    nq, np_ = (sphere_lp_norm(SphereParams(13), 7, e) for e in (4.0, 2.0))
    v = count1_check(13, 7, 2, 4)
    split = Verdict.compare(nq.log_value - np_.log_value, v.rhs, nq.error_estimate + np_.error_estimate)
    # the exact value is 1.768190630122495; the rule lands 3 ulps nearer it
    assert split.lhs == 1.7681906301224934
    assert v.lhs == 1.7681906301224943
    assert split.numeric_error < 0.7 * 6.56e-14
    lam = Fraction(6)
    exact = (
        log_fraction(sphere_power_integral_exact(lam, 7, 4)) / 4
        - log_fraction(sphere_power_integral_exact(lam, 7, 2)) / 2
    )
    assert abs(split.lhs - exact) <= split.numeric_error
    assert abs(v.lhs - exact) <= v.numeric_error


def test_count1_holds_in_small_dimensions():
    for n in (2, 3):
        for d in range(1, 31):
            assert count1_check(n, d, 2, 4).status == HOLDS


def test_count1_p_equals_q_boundary():
    v = count1_check(5, 3, 2.5, 2.5)
    assert v.status == HOLDS and v.margin == 0.0


# the first seven cells have d >= 32, where the band once missed the
# rounding of the recurrence; the rest are a spread of small and large cells
@pytest.mark.parametrize(
    "n,d",
    [(2, 36), (4, 32), (4, 33), (4, 36), (4, 39), (4, 40), (6, 34),
     (2, 1), (3, 10), (13, 7), (9, 25), (12, 40)],
)
def test_count1_error_band_covers_exact_value(n, d):
    lam = Fraction(n - 1, 2)
    exact = (
        log_fraction(sphere_power_integral_exact(lam, d, 4)) / 4
        - log_fraction(sphere_power_integral_exact(lam, d, 2)) / 2
    )
    v = count1_check(n, d, 2, 4)
    assert abs(v.lhs - exact) <= v.numeric_error


@st.composite
def _exponent_pairs(draw):
    p = draw(st.floats(1.0, 12.0, exclude_min=True, exclude_max=True))
    return p, draw(st.floats(p, 12.0, exclude_min=True))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(2, 40), d=st.integers(1, 80), pq=_exponent_pairs())
def test_count1_is_finite_and_three_valued(n, d, pq):
    v = count1_check(n, d, *pq)
    assert all(math.isfinite(x) for x in (v.lhs, v.rhs, v.numeric_error))
    assert v.status in (HOLDS, FAILS, INCONCLUSIVE)


def test_utol1_fails_at_paper_cell():
    v = utol1_check(13, 7)
    assert v.status == FAILS
    assert abs(v.margin) > 10 * v.numeric_error


def test_utol1_holds_at_n2_d1_exactly():
    # closed-form oracle: lhs = integral t^4 dt = 2/5;
    # rhs = 9^1 * (n-1)^2 B(1/2, 1) / (d^2 (2d+n-1)^2 B(1,1)^2) = 9 * 2 / 9 = 2
    v = utol1_check(2, 1)
    assert v.status == HOLDS
    assert v.lhs == pytest.approx(math.log(2 / 5), rel=1e-12)
    assert v.rhs == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("n,d", [(1000, 1), (1000, 3), (13, 7), (2, 400), (500, 12)])
def test_utol1_rhs_matches_mpmath(n, d):
    # lgamma differences put the right side 2.9e-12 off at (1000, 1), against
    # a band of 2.0e-14
    from mpmath import mp

    with mp.workdps(40):
        exact = float(
            mp.sqrt(mp.mpf(d) * (d + n - 1) / n) * mp.log(9)
            + 2 * mp.log(n - 1)
            + mp.log(mp.beta(mp.mpf(1) / 2, mp.mpf(n) / 2))
            - 2 * mp.log(d)
            - 2 * mp.log(2 * d + n - 1)
            - 2 * mp.log(mp.beta(n - 1, d))
        )
    v = utol1_check(n, d)
    assert abs(v.rhs - exact) <= 4.0 * np.finfo(float).eps * abs(exact)
    assert abs(v.rhs - exact) <= v.numeric_error


def test_utol1_count1_status_agreement():
    for n in (2, 6, 11, 13):
        for d in (1, 3, 7, 9):
            assert utol1_check(n, d).status == count1_check(n, d, 2, 4).status


def test_hermite_bound_values_and_flip():
    v1 = hermite_bound_check(1, 2, 4)
    assert v1.lhs == pytest.approx(math.log(3 ** 0.25), rel=1e-10)
    assert v1.rhs == pytest.approx(0.5 * math.log(3), rel=1e-14)
    assert v1.status == HOLDS
    assert hermite_bound_check(2, 2, 4).status == HOLDS
    v3 = hermite_bound_check(3, 2, 4)
    assert v3.status == FAILS
    # exact moment oracle for the failing side
    assert v3.lhs == pytest.approx(
        0.25 * math.log(hermite_fourth_moment(3)) - 0.5 * math.log(6), rel=1e-10
    )
    assert hermite_bound_check(3, 3, 3).status == HOLDS


def test_hermite_growth_rate_trend():
    target = math.sqrt(3)
    g20 = hermite_growth_rate(20, 2, 4)
    g40 = hermite_growth_rate(40, 2, 4)
    assert abs(g40 - target) < abs(g20 - target)
    # max(p, 2) in the limit: p = 1.5 targets sqrt(3) as well
    g15 = hermite_growth_rate(15, 1.5, 4)
    g30 = hermite_growth_rate(30, 1.5, 4)
    assert abs(g30 - target) < abs(g15 - target)
    with pytest.raises(ValueError):
        hermite_growth_rate(5, 2, 2)


def test_count1_finds_the_roots_once(monkeypatch):
    # both norms of the ratio share one root split, on the rule and on the
    # per-exponent adaptive fallback (n = 1000); a root run of degrees finds
    # all its roots in one call, and all of d <= 128 on one sphere is one run.
    # An even pair up to its rule's limit finds no roots at all
    calls, lams = [], []
    roots = specfun._gegenbauer_roots

    def counting(lam, degrees):
        calls.append(list(degrees))
        lams.append(lam)
        return roots(lam, degrees)

    monkeypatch.setattr(specfun, "_gegenbauer_roots", counting)
    for n, d in ((13, 7), (1000, 6)):
        calls.clear()
        assert count1_check(n, d, 1.5, 3.0).status in ("holds", "fails")
        assert calls == [[d]]
    calls.clear()
    assert len(count1_checks(13, [5, 7, 6], 1.5, 3.0)) == 3
    assert calls == [[7, 6, 5]]
    calls.clear()
    count1_checks(13, range(1, 41), 1.5, 3.0)
    assert calls == [list(range(40, 0, -1))]
    calls.clear()
    lams.clear()
    counterexample_scan(1.5, 3, range(2, 14), range(1, 41))
    assert calls == [list(range(40, 0, -1))] * 12
    assert lams == [(n - 1) / 2 for n in range(2, 14)]
    # past d = 128 a sphere takes several runs, each within the point budget
    calls.clear()
    count1_checks(13, range(1, 140), 1.5, 3.0)
    assert len(calls) >= 2
    assert all(sum(d // 2 for d in run) <= norms._BATCH_NODES for run in calls)
    assert sorted(d for run in calls for d in run) == list(range(1, 140))
    # (2, 4) takes the rule to d = 40 and roots past it, (2, 6) to d = 27
    calls.clear()
    counterexample_scan(2, 4, range(2, 14), range(1, 41))
    count1_checks(13, [40, 7, 1], 2.0, 4.0)
    count1_checks(1000, [27, 6], 2.0, 6.0)
    assert calls == []
    count1_checks(13, [41, 40, 28], 2.0, 6.0)
    assert calls == [[41, 40, 28]]


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The row count of each matrix passed to numpy.linalg.eigvalsh during the test, in call order."""
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def recording_eigvalsh(matrix, *args, **kwargs):
        sizes.append(len(matrix))
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    return sizes


def test_even_pair_takes_no_roots_no_bisection_and_small_matrices(monkeypatch, eigvalsh_sizes):
    # at or below the rule's limit an even pair calls neither the root finder
    # nor the bisecting integrator.  One sphere's (2, 4) degrees 1..40 share
    # 6 rules, one eigvalsh each when the rule cache is cold and none when it
    # is warm, and no matrix passes _RULE_NODES
    sizes, bisections = eigvalsh_sizes, []
    bisect = quadrature._bisect

    def recording_bisect(*args, **kwargs):
        bisections.append(1)
        return bisect(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_bisect", recording_bisect)
    monkeypatch.setattr(specfun, "_gegenbauer_roots", None)
    for n in (2, 13, 1000):
        norms._exact_rules.cache_clear()
        sizes.clear()
        count1_checks(n, range(1, 41), 2.0, 4.0)
        assert sorted(sizes) == [8, 16, 24, 32, 40, norms._RULE_NODES]
        sizes.clear()
        count1_checks(n, range(1, 41), 2.0, 4.0)
        assert sizes == []
    norms._exact_rules.cache_clear()
    report = counterexample_scan(2, 4, range(2, 14), range(1, 41))
    assert report.first_failure == (13, 7)
    assert len(sizes) <= 6 * 12
    for n, d, p, q in ((20000, 40, 2.0, 4.0), (1000, 20, 4.0, 8.0), (100000, 2, 2.0, 40.0)):
        count1_check(n, d, p, q)
        norms.norm_ratio_sphere(SphereParams(n), d, p, q)
    assert bisections == []
    assert 0 < max(sizes) <= norms._RULE_NODES


def test_root_runs_pass_eigvalsh_at_most_half_their_degree(eigvalsh_sizes):
    # the roots are symmetric rule nodes from a floor(d/2)-row matrix, so a
    # root run of d <= 128 passes at most 64 rows, about the size from which
    # eigvalsh runs OpenBLAS threads that oversubscribe a scan's workers
    degrees = [128, 127, 40, 1]
    for lam in (0.5, 6.0, 499.5):
        eigvalsh_sizes.clear()
        assert [len(roots) for roots in specfun._gegenbauer_roots(lam, degrees)] == degrees
        assert eigvalsh_sizes == [d // 2 for d in degrees if d > 1]
    # the Hermite roots start from a half-size Laguerre matrix, none for d <= 1
    for d in (0, 1, 2, 7, 128, 129, 2000):
        eigvalsh_sizes.clear()
        assert len(specfun.hermite_roots(specfun.HermiteSpec(d))) == d
        assert eigvalsh_sizes == ([d // 2] if d > 1 else [])


def _bits(value):
    """A verdict's or integral's fields, each float as its hex string."""
    return tuple(x.hex() if isinstance(x, float) else x for x in vars(value).values())


@pytest.mark.parametrize("n,degrees,p,q", [
    (2, [40, 9, 8, 2, 1], 2.0, 4.0),
    (3, [30, 17, 11, 6, 1], 1.5, 3.0),
    (13, [39, 7, 6, 3], 2.0, 4.0),
    # d = 6 bisects both norms and d = 30 one of them, while d = 40 and 60
    # converge in the first round
    (1000, [60, 40, 30, 6, 1], 1.5, 1.6),
    (1000, [30, 6, 2], 2.0, 4.0),
])
@pytest.mark.parametrize("max_panels", [None, 5])
def test_batched_count1_is_bitwise_each_cell_alone(monkeypatch, n, degrees, p, q, max_panels):
    # with 5 panels at most, the n = 1000 jobs that bisect end unconverged
    # while the others in their batch finish
    if max_panels is not None:
        monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
    batch = count1_checks(n, degrees, p, q)
    assert [_bits(v) for v in batch] == [_bits(count1_check(n, d, p, q)) for d in degrees]
    lam = (n - 1) / 2
    together = norms._zonal_integrals(lam, degrees, None, specfun._gegenbauer_roots(lam, degrees), (q, p), 1e-12)
    alone = [
        norms._zonal_integrals(lam, [d], None, specfun._gegenbauer_roots(lam, [d]), (q, p), 1e-12)[0]
        for d in degrees
    ]
    assert [[_bits(r) for r in row] for row in together] == [[_bits(r) for r in row] for row in alone]
    if n == 1000:
        first_round = {r.method for row in together for r in row}
        assert first_round == ({ADAPTIVE} if q == 4.0 else {ADAPTIVE, GAUSS_JACOBI})
        converged = {r.converged for row in together for r in row}
        assert converged == ({True} if max_panels is None else {True, False})


@pytest.mark.parametrize("n", [2, 13, 1000, 20000, 50000])
@pytest.mark.parametrize("q,degrees", [
    (4.0, [40, 21, 7, 6, 1]),
    (6.0, [41, 28, 27, 5, 2]),
    # each side of the ladder's rung edges: rules of 41, 40, 32, 24, 16 and
    # 8 positive nodes
    (4.0, [40, 39, 32, 31, 16, 15, 8, 7]),
    (8.0, [21, 20, 16, 12, 4, 1]),
])
def test_batched_even_count1_is_bitwise_each_cell_alone(n, q, degrees):
    # the rules of all sizes come from one pass, shared by the degrees of a
    # size, and at q = 6 and 8 the degrees past the rule's limit take the
    # root split beside them
    batch = count1_checks(n, degrees, 2.0, q)
    assert [_bits(v) for v in batch] == [_bits(count1_check(n, d, 2.0, q)) for d in degrees]


@pytest.mark.parametrize("n", [2, 3, 13, 1000, 50000, 10**7])
@pytest.mark.parametrize("q", [4.0, 8.0])
def test_verdicts_are_bitwise_the_same_on_a_warm_and_a_cold_rule_cache_in_either_order(n, q):
    # a cached rule is the call an uncached one makes, so neither what ran
    # before nor its order moves a float: scan first or single cells first
    degrees = range(1, 31)

    def cells():
        return [_bits(count1_check(n, d, 2.0, q)) for d in degrees]

    def scan():
        return [_bits(v) for v in count1_checks(n, degrees, 2.0, q)]

    norms._exact_rules.cache_clear()
    scan_first = (scan(), scan(), cells())
    norms._exact_rules.cache_clear()
    cells_first = (cells(), cells(), scan())
    assert scan_first[0] == scan_first[1] == cells_first[2]
    assert cells_first[0] == cells_first[1] == scan_first[2]


def test_sufficiency_cells_build_each_exact_rule_once(monkeypatch):
    # the 60 (2, 4) cells of S^2 and S^3 at d <= 30, one count1_check each,
    # need the rules of 8, 16, 24 and 32 positive nodes on each sphere
    calls = []
    build = specfun._jacobi_rules

    def recording_build(counts, alpha, beta):
        calls.append((tuple(counts), alpha, beta))
        return build(counts, alpha, beta)

    monkeypatch.setattr(specfun, "_jacobi_rules", recording_build)
    norms._exact_rules.cache_clear()
    for n in (2, 3):
        for d in range(1, 31):
            count1_check(n, d, 2.0, 4.0)
    assert calls == [((2 * k,), lam - 0.5, lam - 0.5) for lam in (0.5, 1.0) for k in (8, 16, 24, 32)]


def test_count1_checks_keeps_the_order_and_repeats_of_its_degrees():
    got = count1_checks(5, [3, 9, 3, 1], 2.0, 4.0)
    assert [_bits(v) for v in got] == [_bits(count1_check(5, d, 2.0, 4.0)) for d in (3, 9, 3, 1)]
    assert count1_checks(5, [], 2.0, 4.0) == []
    assert [v.status for v in count1_checks(5, [4, 2], 3.0, 3.0)] == [HOLDS, HOLDS]
    for n, degrees in ((1, [2]), (5, [3, 0])):
        with pytest.raises(ValueError):
            count1_checks(n, degrees, 2.0, 4.0)


def test_monotone_time_boundary_consistent_with_count1():
    # ||Y_d||_q/||Y_d||_p <= e^{t sqrt(d(d+n-1))} flips at a single threshold
    # found by bisection, and count1 at t_star agrees with the threshold side
    for n, d, p, q in ((13, 7, 2.0, 4.0), (3, 5, 2.0, 4.0)):
        ratio = norms.norm_ratio_sphere(SphereParams(n), d, p, q)
        lam_sqrt = eigenvalue_sqrt_laplacian(n, d)

        def bound_holds(t: float) -> bool:
            return t * lam_sqrt >= ratio.log_value

        lo, hi = 0.0, 10.0
        assert not bound_holds(lo) and bound_holds(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if bound_holds(mid):
                hi = mid
            else:
                lo = mid
        threshold = 0.5 * (lo + hi)
        t_star = ExponentPair(p, q).t_star(n)
        verdict = count1_check(n, d, p, q)
        if verdict.status == HOLDS:
            assert t_star >= threshold * (1 - 1e-9)
        elif verdict.status == FAILS:
            assert t_star <= threshold * (1 + 1e-9)


# -------------------------------------------------------------------- scan

def test_scan_first_failure_matches_paper():
    report = counterexample_scan(2, 4, range(2, 14), range(1, 11))
    assert report.first_failure == (13, 7)
    assert report.n0_estimate == 13
    assert "upper bound" in report.note
    assert all(v.status != INCONCLUSIVE for v in report.grid.values())


def test_scan_no_failures_in_small_dimensions():
    report = counterexample_scan(2, 4, (2, 3), range(1, 31))
    assert report.first_failure is None
    assert report.n0_estimate is None
    assert all(v.status == HOLDS for v in report.grid.values())


def test_scan_empty_range():
    report = counterexample_scan(2, 4, (5,), ())
    assert report.grid == {}
    assert report.first_failure is None


def test_scan_requires_supercritical_q():
    with pytest.raises(ValueError):
        counterexample_scan(1.5, 1.8, (4,), (1,))


def test_scan_parallel_matches_serial(monkeypatch):
    # a real pool, started on any work
    monkeypatch.setattr(hypercheck, "_POOL_MIN_NODES", 0)
    serial = counterexample_scan(2, 4, range(10, 14), range(5, 9), jobs=1)
    parallel = counterexample_scan(2, 4, range(10, 14), range(5, 9), jobs=2)
    assert list(serial.grid) == list(parallel.grid)
    for key in serial.grid:
        assert serial.grid[key] == parallel.grid[key]
    assert serial.first_failure == parallel.first_failure


def test_scan_checks_each_cell_once_even_when_inconclusive(monkeypatch):
    # with 4 panels at most, (1000, 6, 2, 5) stops unconverged (its half
    # interval converges in 7); the scan computes each cell once, through
    # count1_checks, and gives it the verdict count1_check gives
    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    calls = []
    checks = hypercheck.count1_checks

    def counted(n, degrees, p, q, tol):
        calls.extend((n, d) for d in degrees)
        return checks(n, degrees, p, q, tol)

    monkeypatch.setattr(hypercheck, "count1_checks", counted)
    report = counterexample_scan(2, 5, [13, 1000], [6])
    assert calls == [(13, 6), (1000, 6)]
    monkeypatch.setattr(hypercheck, "count1_checks", checks)
    assert report.grid[(1000, 6)] == count1_check(1000, 6, 2, 5)
    assert report.grid[(1000, 6)].status == INCONCLUSIVE
    assert report.grid[(13, 6)].status != INCONCLUSIVE


@pytest.fixture
def fake_pool(monkeypatch):
    """A pool that maps in process, so no worker starts; returns the list of the sizes it was asked for."""
    import concurrent.futures

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return started


@pytest.mark.parametrize("cpus,workers", [(None, None), (1, None), (2, 2), (8, 3)])
def test_scan_starts_no_more_workers_than_cpus_or_cells(monkeypatch, fake_pool, cpus, workers):
    # a pool started on any work
    monkeypatch.setattr(hypercheck, "_POOL_MIN_NODES", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    report = counterexample_scan(2, 4, [2, 3, 4], [1], jobs=10**6)
    assert fake_pool == ([] if workers is None else [workers])
    assert report.grid == counterexample_scan(2, 4, [2, 3, 4], [1]).grid


def test_one_sphere_scan_is_one_task_and_starts_no_pool(monkeypatch, fake_pool):
    # d <= 40 on one sphere is one root run, so one task: no worker to share it with
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = counterexample_scan(2, 4, [13], range(1, 41), jobs=2)
    assert fake_pool == []
    assert list(report.grid) == [(13, d) for d in range(1, 41)]
    assert [_bits(v) for v in report.grid.values()] == [_bits(count1_check(13, d, 2, 4)) for d in range(1, 41)]


def test_the_paper_scan_runs_in_process_below_the_pool_threshold(monkeypatch, fake_pool):
    # the (2, 4) grid n <= 13, d <= 40 is 12 tasks but only 11,916 rule
    # nodes, 47,664 nodes of work
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = counterexample_scan(2, 4, range(2, 14), range(1, 41), jobs=2)
    assert fake_pool == []
    assert report.first_failure == (13, 7)
    assert len(report.grid) == 480


@pytest.mark.parametrize("q,nodes", [(4, 3 * 8 * hypercheck._RULE_NODE_WEIGHT), (3, 3 * 96)])
def test_a_scan_at_the_pool_threshold_starts_the_pool(monkeypatch, fake_pool, q, nodes):
    # 3 cells of 8 weighted rule nodes (d = 1 at q = 4) or of 96 first-round
    # nodes (q = 3): a threshold of exactly that work starts
    # min(jobs, tasks, CPUs) = 2 workers, and one node more starts none
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for threshold, started in ((nodes, [2]), (nodes + 1, [])):
        fake_pool.clear()
        monkeypatch.setattr(hypercheck, "_POOL_MIN_NODES", threshold)
        report = counterexample_scan(2, q, [2, 3, 4], [1], jobs=2)
        assert fake_pool == started
        assert report.grid == counterexample_scan(2, q, [2, 3, 4], [1]).grid


@pytest.mark.parametrize("p,q,n_max,started", [(1.5, 3, 13, [2]), (2, 4, 30, []), (2, 4, 60, [2])])
def test_a_scan_starts_the_pool_from_its_measured_break_even(monkeypatch, fake_pool, p, q, n_max, started):
    # on d <= 40: (1.5, 3) on n <= 13 counts 506,880 first-round nodes, where
    # 2 workers beat one process; at (2, 4) n 2..30 (28,797 rule nodes) is
    # level in process and on 2 workers, so it stays in process, and n 2..60
    # (58,587), where 2 workers win, starts them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    counterexample_scan(p, q, range(2, n_max + 1), range(1, 41), jobs=2)
    assert fake_pool == started


def test_count1_and_the_scan_take_integer_dimensions_and_degrees():
    # numpy integers are integers; a float is refused even when integral,
    # and n is checked before an empty list of degrees
    bad = [
        lambda: count1_check(3, 2.5, 2, 4),
        lambda: count1_checks(3.0, [2], 2, 4),
        lambda: count1_checks(1, [], 2, 4),
        lambda: count1_checks(3, [2, 4.0], 2, 4),
        lambda: counterexample_scan(2, 4, [2.5], [3]),
        lambda: counterexample_scan(2, 4, [3], [3.0]),
    ]
    for call in bad:
        with pytest.raises(ValueError):
            call()
    got = count1_checks(np.int64(5), np.array([3, 1], dtype=np.int32), 2, 4)
    assert [_bits(v) for v in got] == [_bits(count1_check(5, d, 2, 4)) for d in (3, 1)]
    report = counterexample_scan(2, 4, np.arange(2, 4), np.arange(1, 3))
    assert list(report.grid) == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert all(type(n) is int and type(d) is int for n, d in report.grid)


@pytest.mark.parametrize("jobs", [None, 0, -3, 1.5, 2.0])
def test_scan_checks_jobs_before_any_work(monkeypatch, fake_pool, jobs):
    # a small grid runs in process and never reads jobs; it is still checked,
    # before any cell, so a bad value cannot pass until a grid reaches the
    # pool threshold
    monkeypatch.setattr(hypercheck, "count1_checks", lambda *args: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match="jobs"):
        counterexample_scan(2, 4, [2, 3], [1], jobs=jobs)
    assert fake_pool == []


def test_scan_takes_a_numpy_integer_jobs(monkeypatch, fake_pool):
    monkeypatch.setattr(hypercheck, "_POOL_MIN_NODES", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = counterexample_scan(2, 4, [2, 3], [1], jobs=np.int64(2))
    assert fake_pool == [2]
    assert report.grid == counterexample_scan(2, 4, [2, 3], [1]).grid


# ----------------------------------------------------------------- verdicts

def test_verdict_trichotomy():
    rng = np.random.default_rng(0)
    for _ in range(500):
        lhs, rhs = rng.normal(size=2)
        err = abs(rng.normal()) * 0.5
        v = Verdict.compare(lhs, rhs, err)
        band = v.numeric_error
        assert band == err + rounding_allowance(lhs, rhs)
        statuses = [v.margin > band, v.margin < -band]
        assert statuses.count(True) == (0 if v.status == INCONCLUSIVE else 1)
        if v.status == HOLDS:
            assert v.margin > band
        elif v.status == FAILS:
            assert v.margin < -band
        else:
            assert -band <= v.margin <= band
        assert v.margin == rhs - lhs


def test_compare_band_includes_the_comparison_rounding():
    # a one-ulp margin is inside the rounding of the comparison itself
    v = Verdict.compare(1.0, 1.0 + 2**-52, 0.0)
    assert v.status == INCONCLUSIVE and v.numeric_error == rounding_allowance(1.0, 1.0 + 2**-52)


def test_nonconverged_inputs_are_inconclusive():
    v = Verdict.compare(1.0, 2.0, math.inf)
    assert v.status == INCONCLUSIVE
    v = Verdict.compare(1.0, 2.0, 1e-12, converged=False)
    assert v.status == INCONCLUSIVE and v.numeric_error == math.inf
