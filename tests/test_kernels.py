"""Iterated-kernel coefficients, profile functions and identities."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from volterra_alpha import kernels
from volterra_alpha.cli import main
from volterra_alpha.errors import CancellationError, DomainError
from volterra_alpha.special import _log_one_minus_pow, is_unit
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

    def test_numpy_alpha_is_a_float(self):
        # numpy scalar arithmetic warned of the overflow in a_n at alpha = 1e300
        assert type(make_kernel_spec(np.float64(1e300), 2).alpha) is float

    @pytest.mark.filterwarnings("error")
    def test_a_n_past_the_product_overflow(self):
        # a_n = alpha expm1((n - 1) log alpha) / expm1(log alpha): the product
        # passes the float range before the division, from alpha ~ 1.3e154 at
        # n = 2 and at alpha = 1e120, n = 3 (a_3 = alpha + alpha^2)
        for alpha in (1.3e154, 1e155, 1e200, 1e300):
            assert make_kernel_spec(alpha, 2).a_n == alpha
        assert make_kernel_spec(1e120, 3).a_n == pytest.approx(1e240, rel=1e-12)
        # where the product is finite, a_n keeps its bits
        for alpha in [*np.geomspace(1e-300, 1e150, 91).tolist(), 0.999, 1.001, 1.0 + 1e-7]:
            if is_unit(alpha):
                continue
            la = math.log(alpha)
            for n in range(2, 41):
                spec = make_kernel_spec(alpha, n)
                if (n - 1) * la > 709.0:
                    assert spec.a_n == math.inf
                    continue
                product_first = alpha * math.expm1((n - 1) * la) / math.expm1(la)
                if math.isfinite(product_first):
                    assert spec.a_n == product_first
                else:
                    assert math.isfinite(spec.a_n)


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


def _uncached_g_closed(spec, z):
    """The closed form as one scalar pass that rebuilds its exponents and
    coefficients on every call: the reference for the per-spec cache.  Its
    powers, logs and exps are numpy's, as the array core takes them."""
    n = spec.n
    if n == 1 or z == 0.0:
        return 1.0
    if z == 1.0:
        return 0.0
    if is_unit(spec.alpha):
        return float(np.power(1.0 - z, n - 1))
    la = math.log(spec.alpha)
    lz = float(np.log(z))
    exps = kernels._profile_exponents(spec.alpha, n)
    log_coeff = 0.0
    max_log = 0.0
    for k in range(1, n):
        log_coeff += _log_one_minus_pow(la, n - k) - _log_one_minus_pow(la, k) + (k - 1) * la
        max_log = max(max_log, log_coeff + exps[k] * lz)
    if max_log > math.log(kernels.CANCELLATION_LIMIT):
        raise CancellationError("prescan")
    terms = [1.0]
    coeff = 1.0
    sign = 1.0
    try:
        for k in range(1, n):
            coeff *= (
                abs(math.expm1((n - k) * la)) / abs(math.expm1(k * la)) * math.exp((k - 1) * la)
            )
            sign = -sign
            terms.append(sign * coeff * float(np.exp(exps[k] * lz)))
        total = math.fsum(terms)
    except OverflowError as exc:
        raise CancellationError("overflow") from exc
    if not -1e-6 <= total <= 1.0 + 1e-6:  # also a non-finite sum
        raise CancellationError("range")
    return total


def _loop_g_value(spec, z):
    try:
        return _uncached_g_closed(spec, z)
    except CancellationError:
        return g_recursive(spec, z)


def _loop_kernel_K(spec, x, y):
    """The kernel as one scalar pass, with numpy's logs and exps at x: the
    reference for kernel_K over an array."""
    if x == 0.0:
        return 0.0 if y > 0.0 else (spec.b_n if spec.a_n == 0.0 else 0.0)
    lx = float(np.log(x))
    a_pow_n = math.inf if spec.n * math.log(spec.alpha) > 709.0 else spec.alpha**spec.n
    log_support = a_pow_n * lx if x < 1.0 else 0.0
    ly = math.log(y) if y > 0.0 else -math.inf
    if ly > log_support:
        return 0.0
    z = float(np.exp(ly - log_support)) if y > 0.0 else 0.0
    g = _loop_g_value(spec, min(z, 1.0))
    log_pref = spec.log_b_n + (spec.a_n * lx if x < 1.0 else 0.0)
    if log_pref < -745.0:
        return 0.0
    return float(np.exp(log_pref)) * max(g, 0.0)


class TestPrescan:
    def test_accepted_mask_is_the_log_space_rule(self):
        # the closed form judges a point from the terms it sums; it must
        # accept exactly the points that the termwise log-space sum of the
        # coefficient magnitudes accepts, over alpha from 1e-300 to 1e300,
        # n = 2..40 and z uniform and crowding toward 0 and toward 1
        alphas = [*np.geomspace(1e-300, 0.9, 12), 0.999, *np.geomspace(1.1, 1e300, 12)]
        z = np.concatenate(
            [
                np.linspace(0.0, 1.0, 801)[1:-1],
                np.geomspace(1e-300, 0.5, 800),
                1.0 - np.geomspace(1e-16, 0.5, 800),
            ]
        )
        lz = np.log(z)
        accepted = 0
        for alpha in map(float, alphas):
            la = math.log(alpha)
            for n in range(2, 41):
                exps = kernels._profile_exponents(alpha, n)
                max_log = np.zeros(z.shape)
                log_coeff = 0.0
                for k in range(1, n):
                    log_coeff += (
                        _log_one_minus_pow(la, n - k) - _log_one_minus_pow(la, k) + (k - 1) * la
                    )
                    np.maximum(max_log, log_coeff + exps[k] * lz, out=max_log)
                expect = max_log <= math.log(kernels.CANCELLATION_LIMIT)
                _, ok = kernels._closed(make_kernel_spec(alpha, n), z)
                assert np.array_equal(ok, expect), (alpha, n)
                accepted += np.count_nonzero(ok)
        assert 0 < accepted < len(alphas) * 39 * z.size


class TestArrayCores:
    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 0.7, 0.999, 1.001, 1.5, 3.0, 1e3])
    def test_cached_closed_form_is_bit_identical(self, alpha):
        for n in range(1, 13):
            spec = make_kernel_spec(alpha, n)
            for z in ZGRID.tolist():
                try:
                    expect = _uncached_g_closed(spec, z)
                except CancellationError:
                    with pytest.raises(CancellationError):
                        g_closed(spec, z)
                else:
                    assert g_closed(spec, z) == expect

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 3.0])
    def test_g_value_array_matches_scalar(self, alpha):
        rejected = 0
        for n in (1, 2, 6, 10, 12):
            spec = make_kernel_spec(alpha, n)
            _, ok = kernels._closed(spec, ZGRID)
            rejected += np.count_nonzero(~ok)
            values = g_value(spec, ZGRID)
            scalar = [g_value(spec, z) for z in ZGRID.tolist()]
            assert np.max(np.abs(values - scalar)) <= 1e-15
            assert values.tolist() == [_loop_g_value(spec, z) for z in ZGRID.tolist()]
        if alpha == 3.0:
            assert rejected > 0  # the batch fallback to the recursion is exercised

    @pytest.mark.parametrize("alpha,n", [(0.5, 1), (0.8, 4), (1.0, 3), (3.0, 10)])
    def test_kernel_K_array_matches_scalar(self, alpha, n):
        spec = make_kernel_spec(alpha, n)
        xs = np.linspace(0.0, 1.0, 41)
        for y in (0.0, 0.02, 0.5, 1.0):
            values = kernel_K(spec, xs, y)
            scalar = [kernel_K(spec, x, y) for x in xs.tolist()]
            assert np.max(np.abs(values - scalar)) <= 1e-15
            assert values.tolist() == [_loop_kernel_K(spec, x, y) for x in xs.tolist()]

    def test_domain(self):
        spec = make_kernel_spec(0.7, 3)
        with pytest.raises(DomainError, match="-0.5"):
            g_value(spec, [0.5, -0.5])
        with pytest.raises(DomainError, match="nan"):
            g_value(spec, [math.nan])
        with pytest.raises(DomainError):
            kernel_K(spec, [0.5, 1.5], 0.5)
        with pytest.raises(DomainError):
            kernel_K(spec, [0.5], -0.1)


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

    @pytest.mark.parametrize("alpha", [1e-300, 1e-320])
    def test_tiny_base_is_quiet(self, alpha):
        # sum_i alpha^(-i) is out of float range; the level scale is inf, not an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = g_recursive(make_kernel_spec(alpha, 3), 0.5)
        assert value == pytest.approx(1.0, abs=1e-12)


def _partial_fractions(alpha, n, z):
    """g_n(z) = 1 - sum_k prod_(j != k) e_j / (e_j - e_k) e^(-e_k |log z|)
    at 300 digits, e_k = sum_(i <= k) alpha^(-i): the law of a sum of
    independent Exp(e_k) variables."""
    with mpmath.workdps(300):
        a = mpmath.mpf(alpha)
        rates = [sum(a ** (-i) for i in range(1, k + 1)) for k in range(1, n)]
        t = -mpmath.log(mpmath.mpf(z))
        total = mpmath.mpf(1)
        for k, ek in enumerate(rates):
            weight = mpmath.fprod(ej / (ej - ek) for j, ej in enumerate(rates) if j != k)
            total -= weight * mpmath.exp(-ek * t)
        return total


class TestMatrixRoute:
    # 25 z within 1e-6..1e-1 of 1, where g_n is tiny, and 25 in [0.01, 0.9]
    Z = np.concatenate([1.0 - np.geomspace(1e-6, 1e-1, 25), np.linspace(0.01, 0.9, 25)])

    @pytest.mark.parametrize(
        "alpha,n",
        [
            (0.05, 3),
            (0.01, 3),
            (1e-3, 2),
            (0.05, 6),
            (0.05, 8),
            (0.01, 6),
            (0.3, 8),
            (0.7, 8),
            (1.0, 8),
            (2.0, 8),
            (100.0, 8),
            (1.05, 20),
        ],
    )
    def test_relative_accuracy_against_partial_fractions(self, alpha, n):
        values = kernels._recursive(make_kernel_spec(alpha, n), self.Z)
        for z, value in zip(self.Z.tolist(), values.tolist()):
            exact = _partial_fractions(alpha, n, z)
            assert abs(value - exact) <= 1e-14 * exact, (z, value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1e-300, 0.05, 1e300])
    def test_extreme_bases_are_quiet(self, alpha):
        z = np.concatenate([np.geomspace(5e-324, 0.5, 40), 1.0 - np.geomspace(1.1e-16, 0.5, 40)])
        values = kernels._recursive(make_kernel_spec(alpha, 12), z)
        assert np.all((values >= 0.0) & (values <= 1.0))
        if alpha == 1e-300:  # every rate is past the float range: Y_k = 0
            assert np.all(values == 1.0)

    def test_only_finite_rates_count_toward_the_cap(self):
        # alpha = 1e-30 keeps 8 rates inside the float range
        spec = make_kernel_spec(1e-30, kernels.MAX_RATES + 2)
        assert g_recursive(spec, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_chunks_keep_the_bits(self, monkeypatch):
        # one point per chunk gives each point the bits it gets in one chunk
        spec = make_kernel_spec(3.0, 10)
        whole = kernels._recursive(spec, ZGRID)
        monkeypatch.setattr(kernels, "_STACK_BYTES", 1)
        assert np.array_equal(kernels._recursive(spec, ZGRID), whole)

    @pytest.mark.parametrize(
        "alpha,n,z",
        [(2.0, 100, np.linspace(0.01, 0.99, 81)), (0.5, 9, np.linspace(0.0, 1.0, 2000))],
    )
    def test_a_chunk_holds_its_stack_bound(self, alpha, n, z):
        # every stack that the Taylor step keeps counts toward _STACK_BYTES
        spec = make_kernel_spec(alpha, n)
        tracemalloc.start()
        try:
            kernels._recursive(spec, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * kernels._STACK_BYTES

    def test_the_rate_cap_refuses_before_any_work(self, monkeypatch):
        def work(rates, t):
            raise AssertionError("the route ran")

        monkeypatch.setattr(kernels, "_absorbed", work)
        spec = make_kernel_spec(1.5, kernels.MAX_RATES + 2)
        with pytest.raises(DomainError, match=str(kernels.MAX_RATES)):
            g_recursive(spec, 0.5)
        with pytest.raises(DomainError, match=str(kernels.MAX_RATES)):
            g_value(spec, np.linspace(0.0, 1.0, 9))

    @pytest.mark.parametrize(
        "alpha,n", [("10", "47"), ("3", "60"), ("2", "100"), ("100", "43"), ("1.5", "300")]
    )
    def test_high_order_kernels_run(self, alpha, n, capsys):
        # the quadrature pyramid this route replaced stalled at the first four
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kernel", "--alpha", alpha, "--n", n]) == 0
        capsys.readouterr()


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
                    vals = kernel_K(spec, pts, float(y))
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
