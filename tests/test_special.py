"""Gamma/Beta and q-analogue substrate."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from volterra_alpha.errors import DomainError
from volterra_alpha.special import (
    beta,
    euler_product,
    gaussian_binomial,
    is_unit,
    log_gamma,
    log_gaussian_binomial,
    q_pochhammer,
)

mp.mp.dps = 50


class TestLogGamma:
    def test_anchor_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), abs=1e-11)

    def test_absolute_error_moderate_range(self):
        # plumbing contract: <= 1e-12 absolute wherever binary64 can express it
        xs = np.concatenate([np.geomspace(1e-3, 300.0, 160), [0.9999, 1.0001, 2.0]])
        for x in xs:
            assert abs(log_gamma(float(x)) - float(mp.loggamma(mp.mpf(float(x))))) < 1e-12

    def test_absolute_error_large_arguments_ulp_limited(self):
        # above ~1e3 the value itself has ulp > 1e-12; require a few ulps
        for x in np.geomspace(3e2, 1e4, 40):
            exact = float(mp.loggamma(mp.mpf(float(x))))
            assert abs(log_gamma(float(x)) - exact) < 4.0 * np.spacing(abs(exact)) + 1e-12

    def test_subnormal_argument(self):
        # a reflection pi / sin(pi x) overflows here; log Gamma(x) ~ -log x
        assert log_gamma(1e-320) == math.lgamma(1e-320)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestBeta:
    def test_uniform_integral(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_small_factorials(self):
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_against_defining_integral(self):
        a, b = 0.7, 2.4
        # Gauss-Jacobi weighting integrates x^(a-1)(1-x)^(b-1) exactly
        oracle, err = quad(lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1, b - 1))
        assert err < 1e-10
        assert beta(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_relative_accuracy_sweep(self):
        for a in (0.05, 0.4, 1.7, 8.0, 41.5):
            for b in (0.2, 1.0, 3.3, 17.0):
                exact = float(mp.beta(mp.mpf(a), mp.mpf(b)))
                assert abs(beta(a, b) - exact) / exact < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -2.0)


class TestGaussianBinomial:
    def test_m3_k1_is_geometric_sum(self):
        for alpha in (0.2, 0.7, 1.3, 2.0):
            expect = 1.0 + alpha + alpha**2
            assert gaussian_binomial(3, 1, alpha) == pytest.approx(expect, rel=1e-13)

    def test_unit_base_is_binomial(self):
        assert gaussian_binomial(4, 2, 1.0) == 6.0
        assert gaussian_binomial(10, 3, 1.0 + 1e-12) == pytest.approx(120.0, rel=1e-9)

    def test_extended_precision_oracle(self):
        alpha = mp.mpf("0.5")
        exact = ((1 - alpha**5) * (1 - alpha**4)) / ((1 - alpha) * (1 - alpha**2))
        assert gaussian_binomial(5, 2, 0.5) == pytest.approx(float(exact), rel=1e-13)

    def test_empty_family_and_domain(self):
        assert gaussian_binomial(3, 5, 0.5) == 0.0
        with pytest.raises(DomainError):
            gaussian_binomial(-1, 0, 0.5)
        with pytest.raises(DomainError):
            gaussian_binomial(3, -2, 0.5)

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_base_must_be_positive_and_finite(self, q):
        # q = inf gave nan
        with pytest.raises(DomainError, match="q-base"):
            gaussian_binomial(5, 2, q)
        with pytest.raises(DomainError, match="q-base"):
            log_gaussian_binomial(5, 2, q)

    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.sampled_from([0.1, 0.5, 0.9, 1.0, 2.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_positivity_property(self, m, k, alpha):
        if k <= m:
            assert gaussian_binomial(m, k, alpha) > 0.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0, 2.0])
    def test_pascal_recursion(self, alpha):
        for k in range(1, 21):
            for j in range(1, k + 1):
                lhs = gaussian_binomial(k, j, alpha)
                rhs = gaussian_binomial(k - 1, j - 1, alpha) + alpha**j * gaussian_binomial(k - 1, j, alpha)
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0, 2.0])
    @pytest.mark.parametrize("t", [-1.0, 0.5, 1.0, 2.0])
    def test_binomial_theorem(self, alpha, t):
        for k in range(1, 16):
            terms = [
                alpha ** (j * (j - 1) // 2) * gaussian_binomial(k, j, alpha) * t**j
                for j in range(k + 1)
            ]
            lhs = math.fsum(terms)
            rhs = float(np.prod([1.0 + alpha**j * t for j in range(k)]))
            scale = max(abs(rhs), max(abs(v) for v in terms), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.77, 0.3, 0) == 1.0

    def test_unit_argument_vanishes(self):
        for k in (1, 3, 9):
            assert q_pochhammer(1.0, 0.6, k) == 0.0

    def test_direct_multiplication(self):
        # (1-0.3)(1-0.15)(1-0.075)
        assert q_pochhammer(0.3, 0.5, 3) == pytest.approx(0.550375, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_pochhammer(0.3, 0.5, -1)

    @pytest.mark.parametrize("z,q", [(0.5, 0.5), (-3.0, 0.9), (2.0**-60, 1.0)])
    def test_huge_order_stops_once_every_factor_is_one(self, z, q):
        # from the first |q^j z| < 2^-54 on every factor rounds to 1, so the
        # loop ends there instead of running all 1e300 factors
        start = time.perf_counter()
        assert q_pochhammer(z, q, 1e300) == q_pochhammer(z, q, 1000)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.filterwarnings("error")
    def test_huge_order_overflow_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="float range"):
            q_pochhammer(0.3, 2.0, 1e300)
        assert time.perf_counter() - start < 0.1


class TestEulerProduct:
    def test_zero_argument(self):
        assert euler_product(0.0, 0.5, 1e-12) == 1.0

    def test_unit_argument(self):
        assert euler_product(1.0, 0.5, 1e-12) == 0.0

    def test_against_series_identity(self):
        # 1 - z * sum_k (z;a)_k a^k telescopes to the product
        z, alpha = 0.4, 0.5
        series = math.fsum(q_pochhammer(z, alpha, k) * alpha**k for k in range(60))
        expect = 1.0 - z * series
        assert euler_product(z, alpha, 1e-12) == pytest.approx(expect, abs=1e-11)

    def test_against_mpmath(self):
        exact = float(mp.qp(mp.mpf("0.4"), mp.mpf("0.5")))
        assert euler_product(0.4, 0.5, 1e-12) == pytest.approx(exact, abs=1e-12 + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_product(0.4, 1.2, 1e-12)
        with pytest.raises(DomainError):
            euler_product(0.4, 0.5, 0.0)
        with pytest.raises(DomainError, match="tolerance"):
            euler_product(0.4, 0.5, 1.0)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
def test_q_series_identity(alpha, z):
    """sum_k (z;a)_k a^k equals (1 - (z;a)_inf)/z, truncation by tail bound."""
    kmax = int(math.log(1e-12 * (1.0 - alpha)) / math.log(alpha)) + 2
    lhs = math.fsum(q_pochhammer(z, alpha, k) * alpha**k for k in range(kmax))
    rhs = (1.0 - euler_product(z, alpha, 1e-14)) / z
    assert abs(lhs - rhs) <= 1e-10


def test_is_unit():
    assert is_unit(1.0 + 1e-9)
    assert is_unit(1.0 - 1e-9)
    assert not is_unit(1.1)
    assert not is_unit(math.nan)
    for q_function in (
        lambda q: gaussian_binomial(3, 1, q),
        lambda q: q_pochhammer(0.5, q, 2),
        lambda q: euler_product(0.5, q, 1e-12),
    ):
        with pytest.raises(DomainError):
            q_function(0.0)
        with pytest.raises(DomainError):
            q_function(math.nan)


@pytest.mark.filterwarnings("error")
class TestOverflowIsDomainError:
    """A value beyond the float range raises DomainError, never a raw
    OverflowError or an infinite product."""

    def test_beta(self):
        with pytest.raises(DomainError):
            beta(1e-320, 1.0)

    def test_beta_underflow(self):
        # B(1000, 1000) = exp(-1388.5) would round to 0
        with pytest.raises(DomainError, match=r"log beta\(1000\.0, 1000\.0\) = -1388\.4"):
            beta(1e3, 1e3)

    def test_gaussian_binomial(self):
        with pytest.raises(DomainError):
            gaussian_binomial(2000, 1000, 2.0)
        with pytest.raises(DomainError):
            gaussian_binomial(2000, 1000, 1.0)

    def test_euler_product(self):
        with pytest.raises(DomainError):
            euler_product(1e300, 0.5, 1e-14)

    @pytest.mark.parametrize("x", [math.inf, 1e308])
    def test_log_gamma(self, x):
        # lgamma returns inf at inf and raises OverflowError past 2.5e305
        with pytest.raises(DomainError, match="float range"):
            log_gamma(x)

    @pytest.mark.parametrize("z,q,k", [(1e300, 2.0, 10), (0.5, 1e200, 3)])
    def test_q_pochhammer(self, z, q, k):
        with pytest.raises(DomainError, match="float range"):
            q_pochhammer(z, q, k)

    def test_q_pochhammer_nan(self):
        with pytest.raises(DomainError, match="nan"):
            q_pochhammer(math.nan, 0.5, 3)

    def test_q_pochhammer_zero_argument(self):
        # every factor is 1, although q^j leaves the float range
        assert q_pochhammer(0.0, 1e200, 5) == 1.0
