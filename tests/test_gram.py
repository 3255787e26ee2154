"""Entire-function machinery, its zeros, and the exact L^2 norm."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_alpha import gram, verify
from volterra_alpha.bounds import norm_sandwich
from volterra_alpha.errors import ConvergenceError, DomainError, NumericsError, SearchHorizonError
from volterra_alpha.gram import (
    eval_H,
    eval_H_derivative,
    find_zeros,
    gram_eigenpair,
    deformation_gap,
    norm_22,
    operator_residual,
    small_alpha_diagnostic,
    small_alpha_expansion,
)
from volterra_alpha.oracle import discretize, top_gram_eigenvalues
from volterra_alpha.transform import (
    LpContext,
    apply_T,
    apply_T_adjoint,
    lp_norm,
    midpoints,
)

INF = math.inf


class TestEvalH:
    def test_unit_base_is_cosine(self):
        for z in np.linspace(0.0, 100.0, 41):
            assert abs(eval_H(1.0, float(z)) - math.cos(2.0 * math.sqrt(z))) <= 1e-12

    def test_value_at_zero(self):
        for alpha in (0.2, 1.0, 7.0, INF):
            assert eval_H(alpha, 0.0) == 1.0

    def test_limit_series_smallest_zero(self):
        assert abs(eval_H(INF, 1.445796)) <= 1e-5

    def test_negative_argument_positive_terms(self):
        assert eval_H(0.7, -2.0) > 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_H(-1.0, 0.5)


class TestEvalHDerivative:
    def test_unit_base(self):
        for z in (0.3, 1.0, 4.0, 25.0):
            expect = -math.sin(2.0 * math.sqrt(z)) / math.sqrt(z)
            assert eval_H_derivative(1.0, z) == pytest.approx(expect, abs=1e-12)

    def test_at_zero(self):
        for alpha in (0.25, 1.0, 4.0):
            assert eval_H_derivative(alpha, 0.0) == pytest.approx(
                -(1.0 + alpha) / alpha, rel=1e-14
            )
        assert eval_H_derivative(INF, 0.0) == -1.0

    def test_finite_difference(self):
        h = 1e-5
        fd = (eval_H(0.5, 1.0 + h) - eval_H(0.5, 1.0 - h)) / (2.0 * h)
        assert eval_H_derivative(0.5, 1.0) == pytest.approx(fd, abs=1e-7)

    def test_overflow_fails_at_first_terms(self):
        # 1/c ~ 1e305 overflows the double-double split of the first term
        with pytest.raises(ConvergenceError, match=r"not finite at term \d$"):
            eval_H_derivative(1e-305, 1e-305)


class TestFindZeros:
    def test_unit_base_zeros(self):
        zeros = find_zeros(1.0, 3)
        expect = [math.pi**2 / 16.0 * (1 + 2 * n) ** 2 for n in range(3)]
        assert zeros == pytest.approx(expect, abs=1e-9)

    def test_limit_base_first_zero(self):
        assert find_zeros(INF, 1)[0] == pytest.approx(1.445796, abs=1e-5)

    def test_strictly_increasing_and_alternating(self):
        for alpha in (0.3, 2.0):
            zeros = find_zeros(alpha, 5)
            assert all(b > a for a, b in zip(zeros, zeros[1:]))
            # H alternates sign between consecutive zeros
            sign = 1.0
            for a, b in zip(zeros, zeros[1:]):
                mid = eval_H(alpha, 0.5 * (a + b))
                sign = -sign
                assert math.copysign(1.0, mid) == sign

    def test_small_alpha_first_zero_near_alpha(self):
        # the smallest zero collapses to ~alpha as alpha -> 0
        z0 = find_zeros(0.001, 1)[0]
        assert 0.0005 < z0 < 0.002

    def test_matches_gram_oracle(self):
        # induced eigenvalues match the discretized Gram spectrum
        alpha = 0.5
        zeros = find_zeros(alpha, 2)
        induced = [alpha / ((1 + alpha) ** 2 * h) for h in zeros]
        oracle = top_gram_eigenvalues(discretize(alpha, 2048), 2)
        assert induced == pytest.approx(oracle, abs=1e-3)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 2.0, 20.0])
    def test_bessel_zeros(self, alpha):
        # h_n = (x_n / 2)^2 with x_n the zeros of J_{-eps}, eps = 1/(1+alpha)
        with mpmath.workdps(40):
            order = -1 / (1 + mpmath.mpf(alpha))
            for h in find_zeros(alpha, 10):
                x = mpmath.findroot(lambda t: mpmath.besselj(order, t), 2 * math.sqrt(h))
                assert h == pytest.approx(float((x / 2) ** 2), rel=1e-15)

    def test_unit_base_zeros_to_rounding(self):
        expect = [((2 * n + 1) * math.pi / 4.0) ** 2 for n in range(15)]
        assert find_zeros(1.0, 15) == pytest.approx(expect, rel=1e-15)

    def test_series_noise_ceiling(self):
        with pytest.raises(SearchHorizonError) as info:
            find_zeros(1.0, 19)
        partial = info.value.partial
        assert len(partial) >= 17
        expect = [((2 * n + 1) * math.pi / 4.0) ** 2 for n in range(len(partial))]
        assert partial == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 20.0, INF])
    def test_evaluation_budget(self, alpha, monkeypatch):
        calls = []

        def counted(inner):
            def wrapper(a, z):
                calls.append(z)
                return inner(a, z)

            return wrapper

        for name in ("eval_H", "eval_H_derivative"):
            monkeypatch.setattr(gram, name, counted(getattr(gram, name)))
        monkeypatch.setattr(gram, "_ZEROS", {})
        find_zeros(alpha, 10)
        assert len(calls) <= 130

    def test_each_zero_is_found_once(self, monkeypatch):
        # check_gram asks for 27 eigenpairs over 24 distinct zeros
        refined = []
        refine = gram._refine_zero

        def counted(alpha, za, zb, fa):
            refined.append(alpha)
            return refine(alpha, za, zb, fa)

        monkeypatch.setattr(gram, "_ZEROS", {})
        monkeypatch.setattr(gram, "_refine_zero", counted)
        verify.check_gram(256)
        assert len(refined) == 24

    def test_resumed_walk_matches_a_fresh_one(self, monkeypatch):
        monkeypatch.setattr(gram, "_ZEROS", {})
        head = find_zeros(0.7, 3)
        head.append(-1.0)  # callers get a copy
        resumed = find_zeros(0.7, 8)
        monkeypatch.setattr(gram, "_ZEROS", {})
        assert resumed == find_zeros(0.7, 8)
        assert resumed[:3] == find_zeros(0.7, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            find_zeros(1.0, 0)


@given(
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
    | st.sampled_from([1.0, INF]),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_find_zeros_property(alpha, count):
    """Increasing finite positive zeros with H alternating between them, or
    a library error."""
    try:
        zeros = find_zeros(alpha, count)
    except NumericsError:
        return
    assert len(zeros) == count
    assert all(math.isfinite(h) and h > 0.0 for h in zeros)
    for k, (a, b) in enumerate(zip(zeros, zeros[1:])):
        assert a < b
        assert math.copysign(1.0, eval_H(alpha, 0.5 * (a + b))) == (-1.0) ** (k + 1)


class TestGramEigenpair:
    def test_unit_base_explicit_spectrum(self):
        for n in range(3):
            pair = gram_eigenpair(1.0, n)
            assert pair.eigenvalue == pytest.approx(
                4.0 / (math.pi**2 * (1 + 2 * n) ** 2), rel=1e-10
            )

    def test_unit_base_eigenfunctions_are_cosines(self):
        x = np.linspace(0.0, 1.0, 101)
        for n in (0, 1):
            pair = gram_eigenpair(1.0, n)
            expect = np.cos(math.pi / 2.0 * (1 + 2 * n) * x)
            assert np.max(np.abs(pair.eigenfunction(x) - expect)) <= 1e-6

    def test_boundary_condition(self):
        for alpha in (0.3, 1.0, 3.0):
            for n in range(3):
                pair = gram_eigenpair(alpha, n)
                assert abs(pair.eigenfunction(1.0)) <= 1e-10

    def test_eigenvalues_decreasing(self):
        for alpha in (0.3, 1.0, 3.0):
            pairs = [gram_eigenpair(alpha, n) for n in range(6)]
            for a, b in zip(pairs, pairs[1:]):
                assert b.eigenvalue < a.eigenvalue

    def test_operator_residual(self):
        x = midpoints(4096)
        for alpha in (0.5, 1.0, 2.0):
            for n in range(3):
                pair = gram_eigenpair(alpha, n)
                f = pair.eigenfunction(x)
                tt = apply_T_adjoint(alpha, apply_T(alpha, f))
                residual = lp_norm(tt - pair.eigenvalue * f, 2) / lp_norm(f, 2)
                assert residual <= 5e-3
                assert operator_residual(pair, 4096) == residual

    def test_tail_bound_certified(self):
        pair = gram_eigenpair(2.0, 1)
        assert pair.eigenfunction.tail_bound <= 1e-14
        assert pair.eigenfunction.trunc_K < 200

    def test_domain(self):
        with pytest.raises(DomainError):
            gram_eigenpair(INF, 0)

    @pytest.mark.parametrize("x", [[-0.5, 0.5], 1.5, -math.inf])
    def test_eigenfunction_domain(self, x):
        # refused before any power is taken, so no numpy warning either
        fn = gram_eigenpair(0.7, 0).eigenfunction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="x = "):
                fn(x)


class TestEigenfunctionGrid:
    """TruncatedSeries evaluates a grid in one vectorised pass."""

    X = np.concatenate([midpoints(2048), [0.0, 1.0]])

    @pytest.mark.parametrize("alpha", [0.05, 0.18, 1.0, 3.6, 20.0])
    def test_bit_identical_to_scalar(self, alpha):
        for n in range(6):
            f = gram_eigenpair(alpha, n).eigenfunction
            expect = [eval_H(alpha, f.argument * v**f.power_step) for v in self.X]
            assert np.array_equal(f(self.X), expect)

    def test_scalar_argument(self):
        f = gram_eigenpair(0.7, 2).eigenfunction
        value = f(0.3)
        assert type(value) is float
        assert value == eval_H(0.7, f.argument * np.float64(0.3) ** f.power_step)

    def test_nan_raises(self):
        # nan lies outside [0, 1], like every other refused point
        f = gram_eigenpair(0.7, 0).eigenfunction
        with pytest.raises(DomainError, match="x = nan"):
            f(np.array([0.25, math.nan, 0.75]))
        with pytest.raises(DomainError):
            f(math.nan)

    def test_no_scalar_series_per_point(self, monkeypatch):
        f = gram_eigenpair(0.7, 3).eigenfunction
        calls = []

        def counted(alpha, z):
            calls.append(z)
            return eval_H(alpha, z)

        monkeypatch.setattr(gram, "eval_H", counted)
        assert f(midpoints(2048)).shape == (2048,)
        assert len(calls) <= 2


class TestNorm22:
    def test_halmos_anchor(self):
        assert norm_22(1.0) == pytest.approx(2.0 / math.pi, abs=1e-8)

    def test_large_alpha_scaling(self):
        assert norm_22(1e4) * 100.0 == pytest.approx(1.0 / math.sqrt(1.445796), rel=1e-2)

    def test_small_alpha_slope(self):
        assert 0.7 <= (1.0 - norm_22(1e-3)) / 1e-3 <= 0.8

    def test_domain(self):
        with pytest.raises(DomainError):
            norm_22(0.0)
        with pytest.raises(DomainError):
            norm_22(INF)


class TestSmallAlphaExpansion:
    def test_prediction_values(self):
        assert small_alpha_expansion(0.01) == pytest.approx(0.9925, rel=1e-14)
        assert abs(norm_22(0.01) - 0.9925) <= 10e-4
        assert abs(norm_22(0.001) - 0.99925) <= 10e-6

    def test_diagnostic_bounded(self):
        for alpha in (0.1, 0.03, 0.01, 0.003, 0.001, 1e-4, 1e-5, 1e-6, 1e-7):
            assert small_alpha_diagnostic(alpha) <= 10.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [9e-8, 1e-300, 0.0, math.nan])
    def test_diagnostic_refuses_rounding_limited_alpha(self, alpha):
        with pytest.raises(DomainError):
            small_alpha_diagnostic(alpha)

    @pytest.mark.parametrize(
        "alpha", [1e-8, 1e-10, 1e-12, 1e-14, 1e-50, 1e-100, 1e-200, 1e-290]
    )
    def test_norm_inside_sandwich(self, alpha):
        sandwich = norm_sandwich(alpha, LpContext(2.0, 2.0))
        assert sandwich.lower <= norm_22(alpha) <= sandwich.upper

    def test_domain(self):
        with pytest.raises(DomainError):
            small_alpha_expansion(0.2)


class TestDeformationGap:
    def test_zero_argument(self):
        gap, bound = deformation_gap(0.125, 0.0)
        assert gap == 0.0
        assert bound == pytest.approx(0.625, rel=1e-14)

    def test_bound_holds_on_grid(self):
        for eps in (0.125, 0.1, 0.05, 0.02, 0.01):
            for z in np.linspace(0.0, 1.5, 7):
                gap, bound = deformation_gap(eps, float(z))
                assert gap <= bound

    def test_reported_gap_small(self):
        gap, bound = deformation_gap(0.01, 1.0)
        assert bound == pytest.approx(5 * 0.01 * math.e, rel=1e-12)
        assert gap <= bound

    def test_domain(self):
        with pytest.raises(DomainError):
            deformation_gap(0.2, 1.0)
        with pytest.raises(DomainError):
            deformation_gap(0.0, 1.0)


def test_derivative_floor_near_limit():
    """|H'| stays above 0.02 on [0, 3/2] close to the limiting member."""
    for eps in (0.009, 0.005, 0.001):
        alpha = 1.0 / eps - 1.0
        floor = min(
            abs(eval_H_derivative(alpha, float(z))) for z in np.linspace(0.0, 1.5, 31)
        )
        assert floor >= 0.02
