"""Entire-function machinery, its zeros, and the exact L^2 norm."""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_alpha import gram
from volterra_alpha.bounds import norm_sandwich
from volterra_alpha.errors import DomainError, NumericsError, SearchHorizonError
from volterra_alpha.gram import (
    MAX_ZEROS,
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
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="z must lie"):
                eval_H(0.5, z)
        # H(-1e6) = cosh(2000) at alpha = 1
        with pytest.raises(DomainError, match="float range"):
            eval_H(1.0, -1e6)


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

    def test_tiny_alpha(self):
        # 1/c = 1e305 is finite; at z = c, H = 1 - 1 + c/2 - ... and
        # H' = -0F1(; 1+c; -z)/c with 0F1 = 1 to rounding
        assert eval_H_derivative(1e-305, 1e-305) == -1e305
        assert eval_H(1e-305, 1e-305) == pytest.approx(0.5e-305, rel=1e-15)

    def test_alpha_floor(self):
        # below alpha ~ 5.6e-309, 1/c (about Gamma(c)) overflows
        assert eval_H_derivative(6e-309, 0.0) == pytest.approx(-1.0 / 6e-309, rel=1e-15)
        for alpha in (5e-309, 5e-324):
            with pytest.raises(DomainError, match="overflows"):
                eval_H(alpha, 0.0)


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

    @pytest.fixture
    def calls(self, monkeypatch):
        """The size of each call of the array core, in order."""
        sizes = []
        core = gram._h_and_slope

        def counted(c, z):
            sizes.append(z.size)
            return core(c, z)

        monkeypatch.setattr(gram, "_h_and_slope", counted)
        return sizes

    def test_two_hundred_zeros(self, calls):
        # no horizon: every zero is ((2n+1) pi/4)^2 to 1e-12, at most 5
        # evaluations of (H, H') each
        expect = [((2 * n + 1) * math.pi / 4.0) ** 2 for n in range(200)]
        assert find_zeros(1.0, 200) == pytest.approx(expect, rel=1e-12)
        assert len(calls) <= 5 * 200

    def test_every_zero_of_the_largest_count(self):
        expect = ((2 * np.arange(MAX_ZEROS) + 1) * math.pi / 4.0) ** 2
        start = time.perf_counter()
        zeros = np.array(find_zeros(1.0, MAX_ZEROS))
        assert time.perf_counter() - start < 2.0
        assert np.max(np.abs(zeros - expect) / expect) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 20.0, INF])
    def test_evaluation_budget(self, alpha, calls):
        # the scan and each refinement step evaluate every point they need
        # in one call of the array core
        find_zeros(alpha, 10)
        assert len(calls) <= 8

    def test_every_prefix_is_bit_identical(self):
        for alpha in (1e-300, 0.7, 1.0, 1e6, INF):
            zeros = find_zeros(alpha, 40)
            for k in (1, 2, 3, 10, 39):
                assert find_zeros(alpha, k) == zeros[:k]
            zeros.append(-1.0)  # each call returns a list of its own
            assert find_zeros(alpha, 41)[:40] == zeros[:40]

    @pytest.mark.parametrize("node, found", [(1, 0), (3, 1)])
    def test_a_wrong_sign_on_the_scan_is_caught(self, node, found, monkeypatch):
        # at alpha = 1, H = cos(x).  Node 1 is z = 2c, the end of zero 0's
        # bracket.  Node 3 is x = 2 + pi; its sign moves zero 1 (x = 3 pi/2)
        # onto that node, within 2.71 of zero 2, closer than any two zeros lie
        zeros = find_zeros(1.0, 10)
        core = gram._h_and_slope
        scanned = []

        def flipped(c, z):
            h, slope = core(c, z)
            if not scanned:  # the first call is the scan
                h[node] = -h[node]
            scanned.append(True)
            return h, slope

        monkeypatch.setattr(gram, "_h_and_slope", flipped)
        with pytest.raises(SearchHorizonError) as exc:
            find_zeros(1.0, 10)
        assert exc.value.partial == zeros[:found]

    @pytest.mark.parametrize("alpha", [1e-300, 1e-9, 0.05, 0.3, 1.0, 2.0, 20.0, 1e6, INF])
    def test_zero_0_matches_a_scalar_loop(self, alpha):
        # the vectorised refinement takes a scalar loop's steps bit for bit,
        # here on zero 0's bracket (c, 2c], so norm_22 keeps its digits
        c = gram._c_eps(alpha)[0]
        za, zb, fa = c, 2.0 * c, eval_H(alpha, c)
        z = (0.5 * (math.sqrt(za) + math.sqrt(zb))) ** 2
        for _ in range(200):
            f, df = eval_H(alpha, z), eval_H_derivative(alpha, z)
            step = z - f / df if df != 0 else math.nan
            if abs(f) <= 1e-12 * max(1.0, abs(df) * z) or (zb - za) <= 4e-16 * zb:
                break
            if (f > 0) == (fa > 0):
                za, fa = z, f
            else:
                zb = z
            z = step if za < step < zb else 0.5 * (za + zb)
        assert find_zeros(alpha, 3)[0] == (step if za <= step <= zb else z)

    def test_domain(self):
        with pytest.raises(DomainError):
            find_zeros(1.0, 0)


@given(
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
    | st.sampled_from([1.0, INF]),
    st.integers(min_value=1, max_value=12) | st.integers(min_value=13, max_value=2000),
)
@settings(max_examples=200, deadline=None)
def test_find_zeros_property(alpha, count):
    """Increasing finite positive zeros with H alternating between them, or
    a library error."""
    try:
        zeros = np.array(find_zeros(alpha, count))
    except NumericsError:
        return
    assert zeros.size == count
    assert np.all(np.isfinite(zeros) & (zeros > 0.0))
    assert np.all(zeros[1:] > zeros[:-1])
    mid = gram._h_and_slope(gram._c_eps(alpha)[0], 0.5 * (zeros[1:] + zeros[:-1]))[0]
    assert np.array_equal(np.sign(mid), (-1.0) ** np.arange(1, count))


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.0, 20.0, INF])
def test_rayleigh_sum_counts_every_zero(alpha):
    """sum_n 1/h_n^2 = 1/(c^2 (1+c)) (Watson, Bessel Functions, 15.51), as H
    is entire of order 1/2 with H(0) = 1.  Past the last zero found, x_n =
    2 sqrt(h_n) lie at least min(d, pi) apart, d the last gap: by Sturm
    comparison on sqrt(x) J_{-eps}(x) (Watson, ch. 15) the gaps shrink toward
    pi for alpha <= 1 and grow toward it for alpha > 1.  That bounds the tail
    of the sum; a skipped zero would leave the partial sum short by 1/h_k^2
    more."""
    c, _ = gram._c_eps(alpha)
    zeros = find_zeros(alpha, 200)
    x_last = 2.0 * math.sqrt(zeros[-1])
    gap = min(x_last - 2.0 * math.sqrt(zeros[-2]), math.pi)
    with mpmath.workdps(40):
        target = 1 / (mpmath.mpf(c) ** 2 * (1 + mpmath.mpf(c)))
        partial = mpmath.fsum(1 / mpmath.mpf(h) ** 2 for h in zeros)
        tail = 16 / mpmath.mpf(gap) ** 4 * mpmath.zeta(4, x_last / gap + 1)
        # each zero is good to ~1e-15 relative; at alpha = 1 the tail bound
        # is exact, so only that rounding separates the two sides
        rounding = 1e-14 * target
        assert 0 <= target - partial <= tail + rounding
        assert 16 / mpmath.mpf(x_last) ** 4 > 10 * rounding


# alphas from the floor to the limit; z <= 0 (the series) and both sides of
# the switch point x = 20, z = 100, up to z = 1e6
REFERENCE_ALPHAS = [1e-300, 1e-3, 0.05, 0.5, 1.0, 20.0, 1e300, INF]
REFERENCE_Z = [-50.0, -3.0, 0.0, 1e-300, 1e-9, 0.3, 2.5, 17.0, 63.0, 99.99, 100.0, 100.01,
               420.0, 3e3, 5e4, 1e6]


class TestAgainstMpmath:
    """H = 0F1(; c; -z) and H' = -0F1(; 1+c; -z)/c to 1e-13 of their size:
    max(1, Gamma(c) (x/2)^eps) for H and max(1, Gamma(c) min(1, (x/2)^(eps-1)))
    for H', with x = 2 sqrt(z); relative for z < 0, where every term is
    positive."""

    @pytest.mark.parametrize("alpha", REFERENCE_ALPHAS)
    def test_values_and_slopes(self, alpha):
        c, eps = gram._c_eps(alpha)
        with mpmath.workdps(40):
            for z in REFERENCE_Z:
                value = mpmath.hyp0f1(c, -z)
                slope = -mpmath.hyp0f1(c + 1, -z) / c
                if z < 0:
                    size, slope_size = abs(value), abs(slope)
                else:
                    half = mpmath.sqrt(z)
                    size = max(1, mpmath.gamma(c) * half**eps)
                    slope_size = max(1, mpmath.gamma(c) * (min(1, half ** (eps - 1)) if z else 1))
                assert abs(eval_H(alpha, z) - value) <= 1e-13 * size
                assert abs(eval_H_derivative(alpha, z) - slope) <= 1e-13 * slope_size

    @pytest.mark.parametrize("alpha", [1e-9, 1.0, INF])
    def test_miller_reaches_rounding_at_the_switch(self, alpha):
        # z just below x = 20, the largest x Miller's recurrence serves
        c, eps = gram._c_eps(alpha)
        z = 99.999
        with mpmath.workdps(40):
            size = max(1, mpmath.gamma(c) * mpmath.sqrt(z) ** eps)
            assert abs(eval_H(alpha, z) - mpmath.hyp0f1(c, -z)) <= 2e-15 * size
            slope = -mpmath.hyp0f1(c + 1, -z) / c
            assert abs(eval_H_derivative(alpha, z) - slope) <= 2e-15 * abs(1 / c)

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 2.0, 20.0])
    @pytest.mark.parametrize("n", [0, 5])
    def test_eigenfunction(self, alpha, n):
        f = gram_eigenpair(alpha, n).eigenfunction
        c, eps = gram._c_eps(alpha)
        x = np.linspace(0.0, 1.0, 21)
        with mpmath.workdps(40):
            for v, got in zip(x, f(x)):
                z = mpmath.mpf(f.argument) * mpmath.mpf(v) ** f.power_step
                size = max(1, mpmath.gamma(c) * mpmath.sqrt(z) ** eps)
                assert abs(got - mpmath.hyp0f1(c, -z)) <= 1e-13 * size


def test_hankel_remainder_below_rounding():
    # each of Hankel's sums P and Q errs by at most its first dropped term
    # (DLMF 10.17(iii)); for the orders c and 1 + c in [0, 2] at the
    # smallest x it sees, the terms t_k = a_k(nu)/x^k decrease through those
    # first dropped terms, t_28 and t_29, which lie below 1e-17
    length = gram._HANKEL_LENGTH
    k = np.arange(1.0, 2 * length + 2)
    for nu in np.linspace(0.0, 2.0, 41):
        t = np.abs(np.cumprod((4 * nu * nu - (2 * k - 1) ** 2) / (8 * k * gram._SWITCH)))
        assert np.all(np.diff(t) <= 0.0)
        assert t[2 * length - 1 :].max() < 1e-17


def test_each_point_alone_gives_the_same_bits():
    # a point's route and every operation on it depend on that point alone
    z = np.array([-40.0, -1e-3, 0.0, 1e-300, 0.2, 2.25, 5.0, 25.0, 99.99, 100.0, 3e3, 1e6])
    for alpha in (0.05, 1.0, INF):
        h, slope = gram._h_and_slope(gram._c_eps(alpha)[0], z)
        for i, point in enumerate(z):
            assert (eval_H(alpha, point), eval_H_derivative(alpha, point)) == (h[i], slope[i])


@pytest.mark.parametrize("c", [1e-300, 0.05, 0.5, 1.0])
def test_miller_carriers_give_the_same_bits(c):
    # up to _SCALAR_POINTS points run one numpy scalar at a time, more run
    # as one array, through the same operations
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.uniform(0.0, 100.0, 397), [c, 2.0 * c, 99.999]])
    h, a = gram._miller(c, z)
    for size in range(1, gram._SCALAR_POINTS + 1):
        for start in range(0, z.size, size):
            part = slice(start, start + size)
            h_part, a_part = gram._miller(c, z[part])
            assert np.array_equal(h_part, h[part]) and np.array_equal(a_part, a[part])


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

    @pytest.mark.parametrize("alpha", [1e-300, 0.05, 1.0, 3.6, 1e6])
    def test_one_scan_gives_every_pair(self, alpha):
        # the zeros of find_zeros(alpha, k) are a prefix of any longer scan's
        pairs = gram._eigenpairs(alpha, 6)
        assert pairs == [gram_eigenpair(alpha, n) for n in range(6)]

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
            expect = [eval_H(alpha, f.argument * np.power(v, f.power_step)) for v in self.X]
            assert np.array_equal(f(self.X), expect)

    def test_scalar_argument(self):
        f = gram_eigenpair(0.7, 2).eigenfunction
        value = f(0.3)
        assert type(value) is float
        assert value == eval_H(0.7, f.argument * np.power(0.3, f.power_step))

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
