"""Iterated-kernel coefficients, profile functions and identities."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from volterra_alpha.errors import CancellationError, DomainError
from volterra_alpha.kernels import (
    g_closed,
    g_recursive,
    g_step_relation_residual,
    g_value,
    kernel_K,
    kernel_lower_bound,
    make_kernel_spec,
)

ALPHAS = (0.3, 0.7, 1.0, 1.5, 3.0)
ZGRID = np.linspace(0.0, 1.0, 101)


class TestKernelSpec:
    def test_generic_coefficients(self):
        s = make_kernel_spec(0.5, 3)
        assert s.a_n == pytest.approx(0.75, rel=1e-14)
        assert s.b_n == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_unit_limit(self):
        s = make_kernel_spec(1.0, 4)
        assert s.a_n == 3.0
        assert s.b_n == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_first_kernel(self):
        for alpha in (0.2, 1.0, 5.0):
            s = make_kernel_spec(alpha, 1)
            assert s.a_n == 0.0
            assert s.b_n == 1.0

    def test_log_coefficient_large_order(self):
        # no overflow at n = 1e4; value matches the sum of logs by construction
        s = make_kernel_spec(2.0, 10_000)
        assert math.isfinite(s.log_b_n)
        s_sub = make_kernel_spec(0.5, 10_000)
        assert math.isfinite(s_sub.log_b_n)

    def test_positivity_invariants(self):
        for alpha in (0.3, 0.99, 1.0, 1.01, 4.0):
            for n in range(1, 12):
                s = make_kernel_spec(alpha, n)
                assert s.a_n >= 0.0
                assert s.b_n > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            make_kernel_spec(0.0, 3)
        with pytest.raises(DomainError):
            make_kernel_spec(1.0, 0)
        with pytest.raises(DomainError):
            make_kernel_spec(math.inf, 3)


class TestGClosed:
    def test_two_level_display(self):
        for alpha in (0.4, 1.7):
            s = make_kernel_spec(alpha, 2)
            for z in (0.0, 0.2, 0.9, 1.0):
                assert g_closed(s, z) == pytest.approx(1.0 - z ** (1.0 / alpha), abs=1e-14)

    def test_three_level_display(self):
        alpha = 0.8
        s = make_kernel_spec(alpha, 3)
        for z in (0.1, 0.37, 0.95):
            expect = 1.0 - (alpha + 1.0) * z ** (1.0 / alpha) + alpha * z ** (1.0 / alpha + 1.0 / alpha**2)
            assert g_closed(s, z) == pytest.approx(expect, abs=1e-13)

    def test_unit_branch(self):
        s = make_kernel_spec(1.0, 5)
        assert g_closed(s, 0.3) == pytest.approx(0.7**4, rel=1e-14)

    def test_matches_recursion(self):
        s = make_kernel_spec(0.7, 5)
        assert abs(g_closed(s, 0.3) - g_recursive(s, 0.3)) <= 1e-8

    def test_cancellation_rejection(self):
        # base 3, order 12 needs ~1e21-size terms: must refuse, not lie
        s = make_kernel_spec(3.0, 12)
        with pytest.raises(CancellationError):
            g_closed(s, 0.9)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0, 1e-300, 1e-320])
    def test_vanishes_at_one(self, alpha):
        for n in (2, 3, 6):
            assert g_closed(make_kernel_spec(alpha, n), 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [1e-300, 1e-320])
    def test_tiny_base_is_quiet(self, alpha):
        # alpha^(-k) overflows double range; no overflow or NaN may surface
        spec = make_kernel_spec(alpha, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (1e-300, 0.5, 1.0 - 1e-16, 1.0):
                assert g_closed(spec, z) == (0.0 if z == 1.0 else 1.0)
            for x in np.linspace(0.0, 1.0, 9):
                kernel_K(spec, float(x), 0.5)

    def test_domain(self):
        s = make_kernel_spec(1.0, 2)
        with pytest.raises(DomainError):
            g_closed(s, 1.5)


class TestGRecursive:
    def test_level_one(self):
        s = make_kernel_spec(0.6, 1)
        assert g_recursive(s, 0.77) == 1.0

    def test_level_two_value(self):
        s = make_kernel_spec(0.5, 2)
        assert g_recursive(s, 0.25) == pytest.approx(0.9375, abs=1e-9)

    def test_unit_closed_form(self):
        s = make_kernel_spec(1.0, 4)
        assert g_recursive(s, 0.4) == pytest.approx(0.6**3, abs=1e-9)

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("z", [0.96, 0.98])
    def test_matches_closed_form_near_one(self, n, z):
        # the worst case of the verify grid; a 4-point interpolant misses it
        s = make_kernel_spec(0.3, n)
        assert abs(g_closed(s, z) - g_recursive(s, z)) <= 1e-9


@pytest.mark.parametrize("alpha", ALPHAS)
def test_profile_grid_invariants(alpha):
    """Range, closed-vs-recursive agreement, and the lower bound on a z-grid."""
    for n in range(1, 13):
        spec = make_kernel_spec(alpha, n)
        for z in ZGRID:
            g = g_value(spec, float(z))
            assert -1e-9 <= g <= 1.0 + 1e-9
            try:
                gc = g_closed(spec, float(z))
            except CancellationError:
                gc = None
            if gc is not None:
                assert abs(gc - g_recursive(spec, float(z))) <= 1e-7
            if n >= 2:
                assert kernel_lower_bound(spec, float(z)) <= g + 1e-9


class TestStepRelation:
    @pytest.mark.parametrize(
        "alpha,n,z,tol",
        [(0.5, 1, 0.5, 1e-10), (0.8, 3, 0.9, 1e-9), (2.0, 6, 0.1, 1e-8)],
    )
    def test_residual(self, alpha, n, z, tol):
        assert g_step_relation_residual(make_kernel_spec(alpha, n), z) <= tol


class TestKernelK:
    def test_indicator_base_case(self):
        s = make_kernel_spec(0.6, 1)
        assert kernel_K(s, 0.5, 0.5**0.6 - 1e-9) == 1.0
        assert kernel_K(s, 0.5, 0.5**0.6 + 1e-9) == 0.0
        assert kernel_K(s, 0.0, 0.0) == 1.0  # 0^0 := 1 keeps K_1(0,0) = 1

    def test_unit_closed_form(self):
        s = make_kernel_spec(1.0, 3)
        assert kernel_K(s, 0.9, 0.2) == pytest.approx(0.7**2 / 2.0, rel=1e-12)

    def test_zero_outside_support(self):
        s = make_kernel_spec(2.0, 2)
        assert kernel_K(s, 0.5, 0.5) == 0.0  # support is y <= x^4 = 0.0625

    def test_against_composition_quadrature(self):
        # K_2(x, y) equals the integral of K_1(x, s) K_1(s, y) ds
        alpha, x, y = 0.5, 0.64, 0.5
        s1 = make_kernel_spec(alpha, 1)
        s2 = make_kernel_spec(alpha, 2)
        nodes, wts = leggauss(512)
        lo, hi = y ** (1.0 / alpha), x**alpha
        pts = (nodes + 1.0) / 2.0 * (hi - lo) + lo
        vals = np.array([kernel_K(s1, float(s), y) for s in pts])
        oracle = float(np.dot(wts, vals) * (hi - lo) / 2.0)
        assert kernel_K(s2, x, y) == pytest.approx(oracle, abs=1e-9)

    def test_nonnegative(self):
        for alpha in (0.4, 1.0, 2.5):
            spec = make_kernel_spec(alpha, 4)
            for x in np.linspace(0, 1, 7):
                for y in np.linspace(0, 1, 7):
                    assert kernel_K(spec, float(x), float(y)) >= 0.0


@pytest.mark.parametrize("alpha", [0.5, 0.8, 2.0])
def test_semigroup_quadrature(alpha):
    """K_{n+1}(x,y) vs 512-point quadrature of K_1 * K_n, n <= 5, 9x9 grid."""
    nodes, wts = leggauss(512)
    for n in range(1, 6):
        spec = make_kernel_spec(alpha, n)
        up = make_kernel_spec(alpha, n + 1)
        for x in np.linspace(0.05, 0.95, 9):
            for y in np.linspace(0.02, 0.93, 9):
                lo, hi = y ** (1.0 / alpha**n), x**alpha
                if hi > lo:
                    pts = (nodes + 1.0) / 2.0 * (hi - lo) + lo
                    vals = np.array([kernel_K(spec, float(s), float(y)) for s in pts])
                    oracle = float(np.dot(wts, vals) * (hi - lo) / 2.0)
                else:
                    oracle = 0.0
                assert abs(kernel_K(up, float(x), float(y)) - oracle) <= 1e-6


@pytest.mark.parametrize("alpha", [0.5, 0.8, 2.0])
def test_three_term_relation(alpha):
    """(a_n + 1) K_{n+1}(x,y) = x^a K_n(x^a, y) - a^(n-1) y^(1/a) K_n(x, y^(1/a))."""
    for n in range(1, 6):
        spec = make_kernel_spec(alpha, n)
        up = make_kernel_spec(alpha, n + 1)
        for x in np.linspace(0.1, 0.95, 5):
            for y in np.linspace(0.02, 0.9, 5):
                lhs = (spec.a_n + 1.0) * kernel_K(up, float(x), float(y))
                r1 = x**alpha * kernel_K(spec, float(x**alpha), float(y))
                r2 = alpha ** (n - 1) * y ** (1.0 / alpha) * kernel_K(
                    spec, float(x), float(y ** (1.0 / alpha))
                )
                assert abs(lhs - r1 + r2) <= 1e-8


class TestLowerBound:
    def test_equality_at_two(self):
        s = make_kernel_spec(0.9, 2)
        for z in (0.1, 0.5, 0.99):
            assert kernel_lower_bound(s, z) == pytest.approx(g_closed(s, z), abs=1e-14)

    def test_strict_below_at_unit_base(self):
        s = make_kernel_spec(1.0, 3)
        assert kernel_lower_bound(s, 0.25) == pytest.approx(0.25, rel=1e-13)
        assert g_closed(s, 0.25) == pytest.approx(0.5625, rel=1e-13)

    def test_below_profile_high_base(self):
        s = make_kernel_spec(2.0, 5)
        assert kernel_lower_bound(s, 0.6) <= g_closed(s, 0.6) + 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_lower_bound(make_kernel_spec(1.0, 1), 0.3)
