"""Iterated-kernel coefficients, profile functions and identities."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from volterra_alpha import kernels, verify
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
        # the prescan takes its logs from the signed coefficients; it must
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


def _per_node_levels(alpha, n_max):
    """Samples of g_2..g_{n_max} at the level nodes, each node integrated on
    its own over its whole range [0, min(scale |log s|, 36)] by one fixed
    128-point Gauss-Legendre rule, each level read from this route's level
    below."""
    x, w = leggauss(128)
    s = kernels._S[1:-1]
    lower, levels = None, {}
    for n in range(2, n_max + 1):
        scale = kernels._power_map(alpha) * float(kernels._profile_exponents(alpha, n)[-1])
        upper = np.minimum(scale * -np.log(s), 36.0)
        y = (x + 1.0) / 2.0 * upper[:, None]
        values = np.exp(-y)
        if lower is not None:
            t = np.minimum(s[:, None] * np.exp(y / scale), 1.0)
            values *= np.clip(kernels._interpolate(lower, t), 0.0, 1.0)
        samples = np.concatenate([[1.0], np.clip(values @ w * upper / 2.0, 0.0, 1.0), [0.0]])
        lower = [np.diff(samples, k) for k in range(kernels._STENCIL)]
        levels[n] = samples
    return levels


class TestLevelBuild:
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.5, 10.0, 1e3])
    def test_matches_per_node_quadrature(self, alpha, monkeypatch):
        monkeypatch.setattr(kernels, "_LEVELS", {})
        reference = _per_node_levels(alpha, 6)
        for n in range(2, 7):
            assert np.max(np.abs(kernels._level(alpha, n)[0] - reference[n])) <= 1e-11

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1e-300, 1e300])
    def test_extreme_bases_build_quietly(self, alpha, monkeypatch):
        monkeypatch.setattr(kernels, "_LEVELS", {})
        samples = kernels._level(alpha, 10)[0]
        assert np.all((samples >= 0.0) & (samples <= 1.0))

    def test_one_panel_per_cell(self, monkeypatch):
        # per-node integration over whole ranges spent ~4x the panels
        points = []
        quadrature = kernels._adaptive_panels

        def counted(fn, upper, tol):
            def integrand(owner, y):
                points[-1] += y.size
                return fn(owner, y)

            points.append(0)
            return quadrature(integrand, upper, tol)

        monkeypatch.setattr(kernels, "_LEVELS", {})
        monkeypatch.setattr(kernels, "_adaptive_panels", counted)
        kernels._level(3.0, 8)
        cells = kernels._S.size - 2
        assert len(points) == 7
        assert max(points) <= 1.2 * cells * kernels._PANEL_NODES.size


def _per_point_level(alpha, n, lower):
    """kernels._build_level with the stencil found point by point: its
    integrand reads g_(n-1) through kernels._interpolate."""
    scale = kernels._power_map(alpha) * float(kernels._profile_exponents(alpha, n)[-1])
    s = kernels._S[1:-1]
    steps = scale * np.log(kernels._S[2:] / s)

    def integrand(owner, y):
        damp = np.exp(-y)
        if lower is None:
            return damp
        t = np.minimum(s[owner] * np.exp(y / scale), 1.0)
        return np.clip(kernels._interpolate(lower, t), 0.0, 1.0) * damp

    cells = kernels._adaptive_panels(
        integrand, np.minimum(steps, 36.0), 1e-10 * np.minimum(steps, 1.0)
    )
    values = [0.0]
    for local, decay in zip(cells[::-1].tolist(), np.exp(-steps[::-1]).tolist()):
        values.append(local + decay * values[-1])
    samples = np.clip([1.0, *values[::-1]], 0.0, 1.0)
    return [np.diff(samples, k) for k in range(kernels._STENCIL)]


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.5, 10.0])
def test_panel_stencil_matches_per_point_stencil(alpha, monkeypatch):
    # every point of cell i lies in [s_i, s_(i+1)], so the stencil found
    # once per panel is the one each point would find: the same bits
    monkeypatch.setattr(kernels, "_LEVELS", {})
    lower = None
    for n in range(2, 7):
        built = kernels._build_level(alpha, n, lower)
        reference = _per_point_level(alpha, n, lower)
        assert all(np.array_equal(a, b) for a, b in zip(built, reference))
        lower = built


@pytest.mark.parametrize("alpha", [0.05, 1.5, 3.0])
def test_level_bits_do_not_depend_on_the_block(alpha, monkeypatch):
    # each panel's sums come from its own row of the integrand, in any
    # block; at alpha = 0.05 the panels refine over several rounds
    def levels():
        lower, out = None, []
        for n in range(2, 7):
            lower = kernels._build_level(alpha, n, lower)
            out.append(lower)
        return out

    blocked = levels()
    monkeypatch.setattr(kernels, "_BLOCK", 2048)
    for a, b in zip(blocked, levels()):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestLevelPanels:
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.5, 10.0, 1e3])
    def test_start_panels_match_sixteen(self, alpha, monkeypatch):
        # each cell starts at kernels._MIN_PANELS panels (more for a cell wider
        # than kernels._START_SPAN); sixteen move the samples by ~2e-12
        monkeypatch.setattr(kernels, "_LEVELS", {})
        start = [kernels._level(alpha, n)[0] for n in range(2, 11)]
        monkeypatch.setattr(kernels, "_LEVELS", {})
        monkeypatch.setattr(kernels, "_MIN_PANELS", 16)
        sixteen = [kernels._level(alpha, n)[0] for n in range(2, 11)]
        assert max(np.max(np.abs(a - b)) for a, b in zip(start, sixteen)) <= 1e-11


class TestLevelCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = kernels._build_level

        def counted(alpha, n, lower):
            calls.append((alpha, n))
            return build(alpha, n, lower)

        monkeypatch.setattr(kernels, "_LEVELS", {})
        monkeypatch.setattr(kernels, "_build_level", counted)
        return calls

    def test_keeps_one_alpha(self, builds, capsys):
        # alpha > 1: the kernel command reads g_n through the pyramid
        for alpha in ("1.5", "2", "3", "4", "6"):
            assert main(["kernel", "--alpha", alpha, "--n", "10"]) == 0
        capsys.readouterr()
        assert len(builds) == 5 * 9
        assert len(kernels._LEVELS) <= 9
        assert {a for a, _ in kernels._LEVELS} == {6.0}

    def test_verify_builds_each_level_once(self, builds):
        # verify asks for its alphas in contiguous runs
        verify.check_kernel_identities()
        assert len(builds) == len(set(builds)) == 35


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
