"""Grid substrate: operator application, adjoint, iterates, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_alpha.errors import DomainError
from volterra_alpha.transform import (
    GridFunction,
    LpContext,
    apply_T,
    apply_T_adjoint,
    apply_T_iterate,
    grid_from_callable,
    inner,
    lp_norm,
    midpoints,
)

N = 1024


def constant(c, n=N):
    return GridFunction(np.full(n, float(c)))


class TestGridFunction:
    def test_weights_default_uniform(self):
        f = constant(1.0, 10)
        assert np.allclose(f.weights, 0.1)
        assert f.n_points == 10

    def test_invariants(self):
        with pytest.raises(DomainError):
            GridFunction(np.array([1.0]))
        with pytest.raises(DomainError):
            GridFunction(np.ones(4), np.array([1.0, 1.0, 1.0, 1.0]))


class TestApplyT:
    def test_constant_alpha_one(self):
        out = apply_T(1.0, constant(1.0))
        assert np.max(np.abs(out.values - midpoints(N))) <= 1.0 / (2 * N)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 7.0])
    def test_constant_any_alpha(self, alpha):
        out = apply_T(alpha, constant(1.0))
        assert np.max(np.abs(out.values - midpoints(N) ** alpha)) <= 1.0 / (2 * N)

    def test_power_eigenfunction(self):
        # x^(a/(1-a)) reproduces itself up to the factor 1-a
        alpha = 0.5
        f = grid_from_callable(lambda x: x ** (alpha / (1 - alpha)), N)
        out = apply_T(alpha, f)
        err = np.max(np.abs(out.values - (1 - alpha) * f.values))
        assert err <= 5.0 / N

    def test_projector_branch(self):
        f = grid_from_callable(lambda x: x**2, N)
        out = apply_T(0.0, f)
        assert np.allclose(out.values, out.values[0])
        assert out.values[0] == pytest.approx(1.0 / 3.0, abs=1.0 / N)

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
        assert np.max(np.abs(out.values - expect)) <= 1.0 / (2 * N)

    def test_linear_alpha_one(self):
        f = grid_from_callable(lambda x: x, N)
        out = apply_T_adjoint(1.0, f)
        expect = (1.0 - midpoints(N) ** 2) / 2.0
        assert np.max(np.abs(out.values - expect)) <= 5.0 / N

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_duality(self, alpha):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = GridFunction(rng.standard_normal(N))
            g = GridFunction(rng.standard_normal(N))
            f = GridFunction(f.values / lp_norm(f, 2))
            g = GridFunction(g.values / lp_norm(g, 2))
            gap = abs(inner(apply_T(alpha, f), g) - inner(f, apply_T_adjoint(alpha, g)))
            assert gap <= 5.0 / N

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_projector_difference_is_adjoint_of_reciprocal(self, alpha):
        # (T_0 - T_alpha) g equals the adjoint of the 1/alpha member
        rng = np.random.default_rng(7)
        g = GridFunction(rng.standard_normal(N))
        g = GridFunction(g.values / lp_norm(g, 2))
        lhs = apply_T(0.0, g).values - apply_T(alpha, g).values
        rhs = apply_T_adjoint(1.0 / alpha, g).values
        assert lp_norm(GridFunction(lhs - rhs, g.weights), 2) <= 5.0 / N


class TestIterate:
    def test_single_application(self):
        f = grid_from_callable(lambda x: np.cos(x), N)
        one = apply_T_iterate(0.8, f, 1)
        direct = apply_T(0.8, f)
        assert np.array_equal(one.values, direct.values)

    def test_double_volterra_on_ones(self):
        out = apply_T_iterate(1.0, constant(1.0), 2)
        expect = midpoints(N) ** 2 / 2.0
        assert np.max(np.abs(out.values - expect)) <= 5.0 / N

    def test_domain(self):
        with pytest.raises(DomainError):
            apply_T_iterate(1.0, constant(1.0), 0)


class TestLpNorm:
    def test_constant(self):
        assert lp_norm(constant(-3.0), 2.5) == pytest.approx(3.0, rel=1e-12)

    def test_linear_p2(self):
        f = grid_from_callable(lambda x: x, N)
        assert lp_norm(f, 2) == pytest.approx(3 ** (-0.5), abs=2.0 / N**2)

    def test_linear_p3(self):
        f = grid_from_callable(lambda x: x, N)
        assert lp_norm(f, 3) == pytest.approx(4.0 ** (-1.0 / 3.0), abs=2.0 / N**2)

    def test_domain(self):
        with pytest.raises(DomainError):
            lp_norm(constant(1.0), 1.0)


class TestMonotonicityAndPositivity:
    def test_positive_image(self):
        f = grid_from_callable(lambda x: 1.0 + np.sin(9 * x) ** 2, N)
        for alpha in (0.3, 1.0, 4.0):
            assert np.all(apply_T(alpha, f).values >= 0.0)

    def test_decreasing_in_alpha(self):
        f = grid_from_callable(lambda x: 1.0 + np.sin(9 * x) ** 2, N)
        prev = None
        for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
            cur = apply_T(alpha, f).values
            if prev is not None:
                assert np.all(cur <= prev + 1e-15)
            prev = cur


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=8, max_size=64),
    st.floats(min_value=0.05, max_value=8.0),
)
@settings(max_examples=200, deadline=None)
def test_positivity_property(values, alpha):
    out = apply_T(alpha, GridFunction(np.array(values)))
    assert np.all(out.values >= 0.0)


@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.0),
)
@settings(max_examples=100, deadline=None)
def test_monotonicity_property(a1, a2):
    lo, hi = sorted((a1, a2))
    f = grid_from_callable(lambda x: 1.0 + x**2, 128)
    assert np.all(apply_T(lo, f).values >= apply_T(hi, f).values - 1e-15)


class TestLpContext:
    def test_conjugates(self):
        ctx = LpContext(3.0, 1.5)
        assert abs(1.0 / ctx.p + 1.0 / ctx.p_conj - 1.0) < 1e-12
        assert abs(1.0 / ctx.q + 1.0 / ctx.q_conj - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            LpContext(1.0, 2.0)
        with pytest.raises(DomainError):
            LpContext(2.0, float("inf"))
