"""Grid substrate: operator application, adjoint, iterates, norms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_alpha.errors import DomainError
from volterra_alpha.transform import (
    LpContext,
    apply_T,
    apply_T_adjoint,
    apply_T_iterate,
    inner,
    lp_norm,
    midpoints,
)

N = 1024


def constant(c, n=N):
    return np.full(n, float(c))


class TestGridFunction:
    def test_invariants(self):
        # a grid function is a 1-d array of at least 2 samples
        for bad in (np.array([1.0]), np.ones((4, 4))):
            with pytest.raises(DomainError):
                apply_T(0.5, bad)
            with pytest.raises(DomainError):
                apply_T_adjoint(0.5, bad)
            with pytest.raises(DomainError):
                lp_norm(bad, 2.0)
            with pytest.raises(DomainError):
                inner(bad, bad)


class TestApplyT:
    def test_constant_alpha_one(self):
        out = apply_T(1.0, constant(1.0))
        assert np.max(np.abs(out - midpoints(N))) <= 1.0 / (2 * N)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 7.0])
    def test_constant_any_alpha(self, alpha):
        out = apply_T(alpha, constant(1.0))
        assert np.max(np.abs(out - midpoints(N) ** alpha)) <= 1.0 / (2 * N)

    def test_power_eigenfunction(self):
        # x^(a/(1-a)) reproduces itself up to the factor 1-a
        alpha = 0.5
        f = midpoints(N) ** (alpha / (1 - alpha))
        out = apply_T(alpha, f)
        err = np.max(np.abs(out - (1 - alpha) * f))
        assert err <= 5.0 / N

    def test_projector_branch(self):
        f = midpoints(N) ** 2
        out = apply_T(0.0, f)
        assert np.allclose(out, out[0])
        assert out[0] == pytest.approx(1.0 / 3.0, abs=1.0 / N)

    def test_domain(self):
        with pytest.raises(DomainError):
            apply_T(-0.5, constant(1.0))
        with pytest.raises(DomainError):
            apply_T(math.nan, constant(1.0))


class TestAdjoint:
    def test_constant(self):
        alpha = 0.7
        out = apply_T_adjoint(alpha, constant(1.0))
        expect = 1.0 - midpoints(N) ** (1.0 / alpha)
        assert np.max(np.abs(out - expect)) <= 1.0 / (2 * N)

    def test_linear_alpha_one(self):
        f = midpoints(N)
        out = apply_T_adjoint(1.0, f)
        expect = (1.0 - midpoints(N) ** 2) / 2.0
        assert np.max(np.abs(out - expect)) <= 5.0 / N

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_duality(self, alpha):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = rng.standard_normal(N)
            g = rng.standard_normal(N)
            f = f / lp_norm(f, 2)
            g = g / lp_norm(g, 2)
            gap = abs(inner(apply_T(alpha, f), g) - inner(f, apply_T_adjoint(alpha, g)))
            assert gap <= 5.0 / N

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_projector_difference_is_adjoint_of_reciprocal(self, alpha):
        # (T_0 - T_alpha) g equals the adjoint of the 1/alpha member
        rng = np.random.default_rng(7)
        g = rng.standard_normal(N)
        g = g / lp_norm(g, 2)
        lhs = apply_T(0.0, g) - apply_T(alpha, g)
        rhs = apply_T_adjoint(1.0 / alpha, g)
        assert lp_norm(lhs - rhs, 2) <= 5.0 / N


class TestIterate:
    def test_single_application(self):
        f = np.cos(midpoints(N))
        one = apply_T_iterate(0.8, f, 1)
        direct = apply_T(0.8, f)
        assert np.array_equal(one, direct)

    def test_double_volterra_on_ones(self):
        out = apply_T_iterate(1.0, constant(1.0), 2)
        expect = midpoints(N) ** 2 / 2.0
        assert np.max(np.abs(out - expect)) <= 5.0 / N

    def test_domain(self):
        with pytest.raises(DomainError):
            apply_T_iterate(1.0, constant(1.0), 0)


class TestLpNorm:
    def test_constant(self):
        assert lp_norm(constant(-3.0), 2.5) == pytest.approx(3.0, rel=1e-12)

    def test_linear_p2(self):
        f = midpoints(N)
        assert lp_norm(f, 2) == pytest.approx(3 ** (-0.5), abs=2.0 / N**2)

    def test_linear_p3(self):
        f = midpoints(N)
        assert lp_norm(f, 3) == pytest.approx(4.0 ** (-1.0 / 3.0), abs=2.0 / N**2)

    def test_domain(self):
        with pytest.raises(DomainError):
            lp_norm(constant(1.0), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_no_power_overflows_or_underflows(self):
        # |f|^2 = 1e400 overflowed and 1e-400 underflowed before the samples
        # were scaled by the power of two of max |f|
        assert lp_norm(np.full(8, 1e200), 2) == 1e200
        assert lp_norm(np.full(8, 1e-200), 2) == 1e-200

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1100.0, 1e6, 1e308])
    def test_largest_term_is_one_at_any_exponent(self, p):
        # (1/2)^p underflowed to 0 from p = 1075 on when max |f| was scaled
        # into [1/2, 1) only
        assert lp_norm(np.ones(8), p) == 1.0
        assert lp_norm(np.full(8, 3.0), p) == 3.0


@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)),
        min_size=2,
        max_size=64,
    ),
    st.integers(-500, 500),
)
@settings(max_examples=200, deadline=None)
def test_lp_norm_scales_exactly_by_powers_of_two(values, k):
    f = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_norm(2.0**k * f, 2) == 2.0**k * lp_norm(f, 2)


class TestMonotonicityAndPositivity:
    def test_positive_image(self):
        f = 1.0 + np.sin(9 * midpoints(N)) ** 2
        for alpha in (0.3, 1.0, 4.0):
            assert np.all(apply_T(alpha, f) >= 0.0)

    def test_decreasing_in_alpha(self):
        f = 1.0 + np.sin(9 * midpoints(N)) ** 2
        prev = None
        for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
            cur = apply_T(alpha, f)
            if prev is not None:
                assert np.all(cur <= prev + 1e-15)
            prev = cur


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=8, max_size=64),
    st.floats(min_value=0.05, max_value=8.0),
)
@settings(max_examples=200, deadline=None)
def test_positivity_property(values, alpha):
    out = apply_T(alpha, np.array(values))
    assert np.all(out >= 0.0)


@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.0),
)
@settings(max_examples=100, deadline=None)
def test_monotonicity_property(a1, a2):
    lo, hi = sorted((a1, a2))
    f = 1.0 + midpoints(128) ** 2
    assert np.all(apply_T(lo, f) >= apply_T(hi, f) - 1e-15)


class TestLpContext:
    def test_conjugates(self):
        ctx = LpContext(3.0, 1.5)
        assert abs(1.0 / ctx.p + 1.0 / ctx.p_conj - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            LpContext(1.0, 2.0)
        with pytest.raises(DomainError):
            LpContext(2.0, float("inf"))
