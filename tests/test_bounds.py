"""Norm sandwich, Holder modulus, iterate bounds and growth trends."""

import math

import mpmath as mp
import numpy as np
import pytest

from volterra_alpha.bounds import (
    growth_trend,
    holder_modulus,
    iterate_norm_lower,
    iterate_norm_upper,
    log_iterate_norm_lower,
    log_iterate_norm_upper,
    norm_sandwich,
    preferred_upper_bound,
)
from volterra_alpha.errors import DomainError
from volterra_alpha.gram import norm_22
from volterra_alpha.oracle import discretize, largest_singular_value, matrix_norm_22
from volterra_alpha.special import log_gamma
from volterra_alpha.transform import LpContext

CTX22 = LpContext(2.0, 2.0)


class TestNormSandwich:
    def test_symmetric_exponents_unit_alpha(self):
        # p = q = 2: both uppers coincide at (alpha + 1)^(-1/2); the exact
        # norm 2/pi sits inside [3^(-1/2), 2^(-1/2)]
        sw = norm_sandwich(1.0, CTX22)
        assert sw.lower == pytest.approx(3.0 ** (-0.5), rel=1e-14)
        assert sw.upper_holder == pytest.approx(2.0 ** (-0.5), rel=1e-14)
        assert sw.upper_beta == pytest.approx(2.0 ** (-0.5), rel=1e-12)
        assert sw.lower <= 2.0 / math.pi <= sw.upper

    def test_small_alpha_limits(self):
        sw = norm_sandwich(1e-9, LpContext(1.7, 2.3))
        assert sw.lower == pytest.approx(1.0, abs=1e-8)
        assert sw.upper == pytest.approx(1.0, abs=1e-7)

    def test_large_alpha_ordering(self):
        sw = norm_sandwich(10.0, CTX22)
        assert sw.lower == pytest.approx(21.0 ** (-0.5), rel=1e-14)
        assert sw.lower <= norm_22(10.0) <= sw.upper

    @pytest.mark.parametrize("alpha", [0.1, 0.4, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
    def test_sandwich_order_grid(self, alpha, p):
        for q in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0):
            sw = norm_sandwich(alpha, LpContext(p, q))
            assert sw.lower <= sw.upper + 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            norm_sandwich(-1.0, CTX22)

    @pytest.mark.filterwarnings("error")
    def test_beta_bound_against_mpmath_for_large_alpha(self):
        # the difference of two lgamma values cancels for large alpha (17%
        # off at 1e14, inverted sandwich at 1e16); Stirling's series does not
        for alpha in np.logspace(0.0, 300.0).tolist() + [1.5e307, 1e308]:
            with mp.workdps(int(math.log10(alpha)) + 40):
                for p in (1.2, 1.5, 2.0, 3.0, 6.0):
                    for q in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0):
                        ctx = LpContext(p, q)
                        sw = norm_sandwich(alpha, ctx)
                        a = mp.mpf(ctx.p_conj) / q + 1
                        log_term = mp.loggamma(a) + mp.loggamma(alpha + mp.mpf(1))
                        log_term -= mp.loggamma(alpha + a)
                        exact = mp.exp(log_term / ctx.p_conj)
                        assert abs(sw.upper_beta - exact) <= 1e-12 * exact
                        assert 0.0 < sw.lower <= sw.upper

    @pytest.mark.parametrize("alpha", [0.1, 2.5, 42.009, 100.0])
    def test_beta_bound_keeps_lgamma_below_crossover(self, alpha):
        ctx = LpContext(5.53415, 3.43428)
        a = ctx.p_conj / ctx.q + 1.0
        log_term = log_gamma(a) + log_gamma(alpha + 1.0) - log_gamma(a + alpha)
        assert norm_sandwich(alpha, ctx).upper_beta == math.exp(log_term / ctx.p_conj)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha(self, alpha):
        # at alpha = inf the Beta bound would be log_gamma(inf) - log_gamma(inf)
        with pytest.raises(DomainError):
            norm_sandwich(alpha, CTX22)


class TestHolderModulus:
    def test_coincident(self):
        assert holder_modulus(0.7, 0.7, CTX22) == 0.0

    def test_unit_gap(self):
        assert holder_modulus(1.0, 0.0, CTX22) == pytest.approx(1.0, rel=1e-13)

    def test_generic_value(self):
        ctx = LpContext(2.0, 3.0)
        expect = 0.25**0.5 * math.gamma(2.5) ** (1.0 / 3.0)
        assert holder_modulus(0.5, 0.25, ctx) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,b", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (-0.1, 0.5)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            holder_modulus(a, b, CTX22)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_domain_error(self):
        # the product of a huge gap and Gamma factor used to return inf
        ctx = LpContext(1e300, 1e300)
        with pytest.raises(DomainError, match=r"^holder_modulus\(1e\+300, 0.5\) exceeds the float range"):
            holder_modulus(1e300, 0.5, ctx)
        assert 0.0 < holder_modulus(1.5, 0.5, ctx) < math.inf

    @pytest.mark.parametrize(
        "a,b", [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (0.3, 2.7), (0.0, 3.0)]
    )
    def test_dominates_oracle_difference(self, a, b):
        n = 1024
        ma, mb = discretize(a, n), discretize(b, n)
        est = matrix_norm_22(ma, mb)
        assert est <= holder_modulus(a, b, CTX22) + 2e-3


class TestPreferredUpperBound:
    def test_equality_case(self):
        assert preferred_upper_bound(CTX22) == "equal"
        assert preferred_upper_bound(LpContext(3.0, 1.5)) == "equal"

    def test_holder_preferred(self):
        assert preferred_upper_bound(LpContext(3.0, 4.0)) == "holder"

    def test_beta_preferred(self):
        assert preferred_upper_bound(LpContext(1.5, 1.2)) == "beta"

    @pytest.mark.parametrize("alpha", [0.1, 0.4, 1.0, 2.5, 10.0])
    def test_agrees_with_numeric_comparison(self, alpha):
        for p in (1.2, 1.5, 2.0, 3.0, 6.0):
            for q in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0):
                ctx = LpContext(p, q)
                sw = norm_sandwich(alpha, ctx)
                gap = sw.upper_beta - sw.upper_holder
                choice = preferred_upper_bound(ctx)
                if choice == "equal":
                    assert abs(gap) <= 1e-10
                elif choice == "holder":
                    assert gap >= -1e-10
                else:
                    assert gap <= 1e-10


class TestIterateBounds:
    def test_upper_unit_two(self):
        assert iterate_norm_upper(1.0, 2, 2.0) == pytest.approx(0.5, rel=1e-13)

    def test_upper_single_application(self):
        # n = 1: a_1 = 0, b_1 = 1, so the bound is (alpha + 1)^(-1/p)
        for alpha in (0.3, 1.0, 4.0):
            for p in (1.5, 2.0):
                expect = (alpha + 1.0) ** (-1.0 / p)
                assert iterate_norm_upper(alpha, 1, p) == pytest.approx(expect, rel=1e-13)

    def test_lower_unit_two(self):
        assert iterate_norm_lower(1.0, 2, 2.0) == pytest.approx(0.5 / math.sqrt(5.0), rel=1e-13)

    def test_lower_below_upper(self):
        for alpha in (0.5, 1.0, 2.0):
            for n in range(2, 12):
                assert iterate_norm_lower(alpha, n, 2.0) <= iterate_norm_upper(alpha, n, 2.0)

    def test_log_form_matches_extreme_order(self):
        # by n = 40 at alpha = 2 the plain value underflows; the log form stays finite
        val = log_iterate_norm_upper(2.0, 40, 2.0)
        assert math.isfinite(val)
        assert val / 1600.0 == pytest.approx(-math.log(2.0) / 2.0, rel=0.02)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bound,alpha,n,log_value",
        [
            (iterate_norm_upper, 2.0, 50, "-865.74"),
            (iterate_norm_upper, 0.5, 3000, "-2078.0"),
            (iterate_norm_lower, 2.0, 45, "-782.67"),
        ],
    )
    def test_underflow_names_the_log_form(self, bound, alpha, n, log_value):
        # an upper bound of 0 would claim ||T^n|| <= 0
        with pytest.raises(DomainError, match=rf"^log_{bound.__name__}\(.*\) = {log_value}"):
            bound(alpha, n, 2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            iterate_norm_lower(1.0, 1, 2.0)
        with pytest.raises(DomainError):
            iterate_norm_upper(1.0, 2, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1e307, 1.7e308])
    @pytest.mark.parametrize("alpha,n", [(0.99, 400), (1.0, 50), (2.0, 5), (1.05, 20000)])
    def test_huge_exponent(self, alpha, n, p):
        # the weight's p-th root tends to 1, so past p = 1e300 the bounds
        # stop moving; p a_n (or p/(alpha - 1)) overflowed and gave -inf
        for log_bound in (log_iterate_norm_upper, log_iterate_norm_lower):
            value = log_bound(alpha, n, p)
            assert value == pytest.approx(log_bound(alpha, n, 1e300), rel=1e-15, abs=1e-12)

    def test_huge_exponent_values(self):
        # b_5 = 1/315 at alpha = 2: (1 - 2)^4 / ((1 - 2)(1 - 4)(1 - 8)(1 - 16))
        assert iterate_norm_upper(2.0, 5, 1.7e308) == pytest.approx(1.0 / 315.0, rel=1e-13)
        report = growth_trend(2.0, 1.7e308, 10)
        assert math.isfinite(report.lower_end) and math.isfinite(report.upper_end)


class TestGrowthTrend:
    def test_super_regime_window(self):
        report = growth_trend(2.0, 2.0, 40)
        assert report.regime == "super"
        assert report.scale[-1] == 40.0**2
        assert report.target == pytest.approx(-math.log(2.0) / 2.0)
        assert report.contains_target
        assert -0.38 <= report.midpoint <= -0.32

    def test_unit_regime_window(self):
        report = growth_trend(1.0, 2.0, 50)
        assert report.regime == "unit"
        assert report.scale[-1] == 50 * math.log(50)
        assert report.contains_target
        assert abs(report.midpoint - (-1.0)) <= 0.15
        assert abs(report.lower_end - (-1.0)) <= 0.15

    def test_sub_regime_window(self):
        report = growth_trend(0.5, 2.0, 50)
        assert report.regime == "sub"
        assert report.scale[-1] == 50.0
        assert report.target == pytest.approx(math.log(0.5))
        # spectral-radius anchor makes the lower end exact
        assert report.lower_end == pytest.approx(math.log(0.5), rel=1e-12)
        assert abs(report.upper_end - report.target) <= 0.1 * abs(report.target)
        assert abs(report.midpoint - report.target) <= 0.1 * abs(report.target)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 2.2])
    def test_matches_per_n_bounds_exactly(self, alpha):
        report = growth_trend(alpha, 2.0, 60)
        upper = [log_iterate_norm_upper(alpha, int(n), 2.0) for n in report.ns]
        lower = [log_iterate_norm_lower(alpha, int(n), 2.0) for n in report.ns]
        if alpha < 1.0:
            lower = np.maximum(lower, report.ns * math.log1p(-alpha))
        assert np.array_equal(report.log_upper, upper)
        assert np.array_equal(report.log_lower, lower)

    def test_domain(self):
        with pytest.raises(DomainError):
            growth_trend(1.0, 2.0, 5)


class TestAsymptoticRegimes:
    def test_large_alpha_decay_exponent(self):
        # norm ~ alpha^(-1/q): certified sandwich ends stay bounded after rescaling
        for p, q in ((2.0, 2.0), (1.5, 3.0), (3.0, 1.5)):
            ctx = LpContext(p, q)
            for alpha in np.geomspace(1e2, 1e4, 5):
                sw = norm_sandwich(float(alpha), ctx)
                assert 0.3 <= sw.lower * alpha ** (1.0 / q)
                assert sw.upper * alpha ** (1.0 / q) <= 2.0

    def test_small_alpha_projector_gap(self):
        # ||T_alpha - T_0|| ~ alpha^(1/p'): oracle ratios stay in a fixed band
        n = 2048
        m0 = discretize(0.0, n)
        for alpha in (1e-4, 1e-3, 1e-2):
            ma = discretize(alpha, n)
            est = matrix_norm_22(m0, ma)
            ratio = est * alpha ** (-0.5)
            assert 0.4 <= ratio <= 1.2

    def test_small_alpha_norm_deficit(self):
        # (1 - ||T_alpha||)/alpha bounded via the exact norm and via the bounds
        for alpha in (1e-4, 1e-3, 1e-2):
            assert 0.5 <= (1.0 - norm_22(alpha)) / alpha <= 1.0
            sw = norm_sandwich(alpha, CTX22)
            assert (1.0 - sw.lower) / alpha <= 3.0
            assert (1.0 - sw.upper) / alpha >= 0.2

    def test_reciprocal_symmetry(self):
        # ||T_alpha - T_0||_{2,2} equals the norm of the 1/alpha member
        n = 2048
        alpha = 1e-2
        m0, ma = discretize(0.0, n), discretize(alpha, n)
        est = matrix_norm_22(m0, ma)
        assert abs(est - norm_22(1.0 / alpha)) <= 2e-3


def test_exact_norm_inside_sandwich():
    for alpha in (0.2, 0.7, 1.0, 3.0, 20.0):
        sw = norm_sandwich(alpha, CTX22)
        val = norm_22(alpha)
        assert sw.lower - 1e-12 <= val <= sw.upper + 1e-12


def test_oracle_inside_sandwich_22():
    for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
        est = largest_singular_value(discretize(alpha, 1024))
        sw = norm_sandwich(alpha, CTX22)
        assert sw.lower - 2e-3 <= est <= sw.upper + 2e-3
