"""Point spectrum and eigenfunctions on L^p."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_alpha.errors import DomainError
from volterra_alpha.point_spectrum import (
    eigen_residual,
    eigenfunction,
    eigenvalue,
    projection_residuals,
    spectrum_description,
)


class TestSpectrumDescription:
    def test_quasi_nilpotent_regime(self):
        desc = spectrum_description(2.0)
        assert not desc.has_point_spectrum
        assert desc.spectral_radius == 0.0
        assert desc.eigenvalues(4) == []

    def test_geometric_eigenvalues(self):
        desc = spectrum_description(0.5)
        assert desc.has_point_spectrum
        assert desc.eigenvalues(3) == pytest.approx([0.5, 0.25, 0.125], rel=1e-14)

    def test_radius_near_one(self):
        desc = spectrum_description(0.9)
        assert desc.spectral_radius == pytest.approx(0.1, rel=1e-12)
        assert desc.eigenvalues(1)[0] == pytest.approx(0.1, rel=1e-12)


class TestEigenvalue:
    def test_values(self):
        assert eigenvalue(0.5, 0) == pytest.approx(0.5, rel=1e-15)
        assert eigenvalue(0.5, 3) == pytest.approx(0.0625, rel=1e-14)
        assert eigenvalue(0.3, 2) == pytest.approx(0.063, rel=1e-13)

    def test_log_space_for_large_index(self):
        assert eigenvalue(0.5, 900) == pytest.approx(math.exp(900 * math.log(0.5)) * 0.5)

    @pytest.mark.filterwarnings("error")
    def test_underflow_is_a_domain_error(self):
        # 0.5^1100 / 2 = exp(-763.2) is below the smallest subnormal
        with pytest.raises(DomainError, match=r"log eigenvalue\(0\.5, 1100\) = -763\.1"):
            eigenvalue(0.5, 1100)

    def test_domain(self):
        with pytest.raises(DomainError):
            eigenvalue(1.0, 0)
        with pytest.raises(DomainError):
            eigenvalue(1.5, 0)


class TestEigenfunction:
    def test_ground_state(self):
        fn = eigenfunction(0.4, 0)
        assert fn.gamma == pytest.approx(0.4 / 0.6, rel=1e-15)
        assert fn.coeffs.tolist() == [1.0]
        assert fn(0.5) == pytest.approx(0.5 ** (2.0 / 3.0), rel=1e-14)
        assert fn(0.0) == 0.0

    def test_first_excited_half(self):
        # at alpha = 1/2 the degree-1 coefficient is exactly 1: x (1 + log x)
        fn = eigenfunction(0.5, 1)
        assert fn.coeffs == pytest.approx([1.0, 1.0], rel=1e-14)
        x = np.array([0.2, 0.7, 1.0])
        assert fn(x) == pytest.approx(x * (1.0 + np.log(x)), rel=1e-13)

    def test_degree_is_index(self):
        for alpha in (0.2, 0.5, 0.8):
            for n in range(7):
                fn = eigenfunction(alpha, n)
                assert fn.degree == n
                assert fn.coeffs[-1] != 0.0
                assert fn.coeffs[0] == 1.0

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_coefficient_recursion(self, alpha):
        # the series recursion with A = alpha/lambda, B = alpha/(1-alpha)
        for n in range(1, 6):
            fn = eigenfunction(alpha, n)
            a_coef = alpha / eigenvalue(alpha, n)
            b_coef = alpha / (1.0 - alpha)
            for k in range(n):
                step = (a_coef * alpha**k - b_coef) / (k + 1)
                assert fn.coeffs[k + 1] == pytest.approx(step * fn.coeffs[k], rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            eigenfunction(1.2, 1)

    def test_alpha_below_the_reciprocal_overflow(self):
        # 1/alpha - 1 overflows here, but c_1 = 1; from n = 2 on a
        # coefficient passes the float range
        assert eigenfunction(5e-324, 1).coeffs.tolist() == [1.0, 1.0]
        with pytest.raises(DomainError, match="coefficients"):
            eigenfunction(5e-324, 2)

    @pytest.mark.filterwarnings("error")
    def test_coefficient_overflow(self):
        # P(0) = 1 puts coefficient n near alpha^(-n^2/2) / n!: 2^1558 at n = 60
        with pytest.raises(DomainError, match="alpha = 0.5, n = 400"):
            eigenfunction(0.5, 400)
        with pytest.raises(DomainError, match="alpha = 0.5, n = 60"):
            eigen_residual(0.5, 60, 256, 2)


class TestOverflowIsQuiet:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", range(20, 61))
    def test_finite_or_domain_error(self, n):
        # Horner's rule and |f|^p overflow from n = 27 at alpha = 0.5, below
        # the coefficient overflow at n = 49
        calls = (
            lambda: eigen_residual(0.5, n, 256, 2),
            lambda: eigen_residual(0.5, n, 4096, 3),
            lambda: eigenfunction(0.5, n)(1e-300),
        )
        for call in calls:
            try:
                value = call()
            except DomainError:
                continue
            assert math.isfinite(value)

    def test_overflowing_horner_point_matches_mpmath(self):
        # at x = 1e-300 the polynomial overflows; x^gamma brings the value back
        fn = eigenfunction(0.5, 45)
        with mp.workdps(50):
            log_x = mp.log(mp.mpf(1e-300))
            exact = mp.mpf(1e-300) ** fn.gamma * mp.polyval(fn.coeffs.tolist()[::-1], log_x)
            assert fn(1e-300) == pytest.approx(float(exact), rel=1e-12)

    def test_residual_past_square_overflow(self):
        # from n = 34, sum |f|^2 overflows unless f is rescaled; the residual
        # goes on from 0.0630 at n = 33 and settles near 1/16
        resids = [eigen_residual(0.5, n, 256, 2) for n in range(34, 47)]
        assert all(0.0624 <= r <= 0.0630 for r in resids)

    @pytest.mark.filterwarnings("error")
    def test_residual_up_to_coefficient_overflow(self):
        # at n = 47 and 48 f itself passes the float range near x = 0 (f(1/512)
        # ~ 4.5e326 at n = 48); the residual is scale-free and goes on until the
        # coefficients overflow at n = 49
        for n in (47, 48):
            assert 0.0624 <= eigen_residual(0.5, n, 256, 2) <= 0.0630
            assert 0.0039 <= eigen_residual(0.5, n, 4096, 3) <= 0.0040
        with pytest.raises(DomainError, match="coefficients"):
            eigen_residual(0.5, 49, 256, 2)


class TestScaledTermSum:
    @pytest.mark.filterwarnings("error")
    def test_value_past_the_power_underflow_matches_mpmath(self):
        # x^gamma underflows to 0 here, but the value is a normal float
        fn = eigenfunction(0.7, 20)
        for x in (1e-140, 4.92e-156):
            assert fn(x) == pytest.approx(float(_exact_terms(fn, x)[0]), rel=1e-12, abs=0.0)

    def test_grid_against_mpmath(self):
        # error relative to the largest term, or to the smallest normal float
        # where that term lies below it
        xs = np.concatenate([np.geomspace(1e-300, 1e-2, 60), np.linspace(0.02, 1 - 1e-15, 30)])
        for alpha in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
            for n in (0, 1, 3, 8, 20, 40):
                if (alpha, n) in ((0.05, 40), (0.3, 40)):
                    with pytest.raises(DomainError, match="coefficients"):
                        eigenfunction(alpha, n)
                    continue
                fn = eigenfunction(alpha, n)
                values = fn(xs)
                for x, value in zip(xs, values):
                    exact, largest = _exact_terms(fn, x)
                    scale = max(largest, mp.mpf(2.0**-1022))
                    assert abs(value - exact) <= 1e-12 * scale, (alpha, n, x)

    @pytest.mark.parametrize("x", [math.nan, -0.5, 2.0])
    def test_outside_the_unit_interval(self, x):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            eigenfunction(0.5, 1)(x)
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            eigenfunction(0.5, 1)(np.array([0.5, x]))

    def test_end_points(self):
        fn = eigenfunction(0.3, 4)
        assert fn(np.array([0.0, 1.0])).tolist() == [0.0, fn.coeffs[0]]


def _exact_terms(fn, x):
    """x^gamma P(log x) and its largest term |c_k (log x)^k x^gamma| at 60
    digits, from the float coefficients and the float x."""
    with mp.workdps(60):
        log_x = mp.log(mp.mpf(float(x)))
        power = mp.exp(mp.mpf(fn.gamma) * log_x)
        terms = [mp.mpf(float(c)) * log_x**k * power for k, c in enumerate(fn.coeffs)]
        return mp.fsum(terms), max(abs(t) for t in terms)


@given(
    st.one_of(
        st.sampled_from([5e-324, 1e-300, 1.0 - 1e-9]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    st.integers(0, 60),
    st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-1030, 1.0]), st.floats(0.0, 1.0)),
)
@settings(max_examples=300, deadline=None)
def test_eigenfunction_is_finite_or_refused(alpha, n, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = eigenfunction(alpha, n)(x)
        except DomainError:
            return
    assert type(value) is float and math.isfinite(value)


class TestEigenResidual:
    def test_ground_state_residual(self):
        assert eigen_residual(0.5, 0, 4096, 2) <= 1e-3

    def test_third_level_residual(self):
        assert eigen_residual(0.5, 3, 4096, 2) <= 5e-3

    def test_off_hilbert_exponent(self):
        assert eigen_residual(0.9, 1, 4096, 3) <= 5e-3

    @pytest.mark.filterwarnings("error")
    def test_large_exponent(self):
        # |r|^200 underflows unless lp_norm scales the samples first
        assert 0.0 < eigen_residual(0.5, 3, 64, 200) < math.inf
        for p in (1100.0, 1e308):
            assert 0.0 < eigen_residual(0.5, 1, 64, p) < 1e-4

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_residual_grid(self, alpha, p):
        for n in range(5):
            assert eigen_residual(alpha, n, 4096, p) <= 5e-3


def test_projection_residuals_decrease():
    """Weak density stand-in: least-squares residual onto span{f_0..f_m}
    is nonincreasing in m."""
    resids = projection_residuals(0.5, 6, lambda x: np.sin(math.pi * x), 1024)
    assert all(b <= a + 1e-12 for a, b in zip(resids, resids[1:]))
    resids2 = projection_residuals(0.3, 5, lambda x: np.exp(-x), 1024)
    assert all(b <= a + 1e-12 for a, b in zip(resids2, resids2[1:]))
