"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s`` or in
captured output) and then asserts, so a red criterion is both visible and
fatal.  Grid sizes, tolerances and runtime caps are pinned here, not
configurable.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import volterra_alpha
from volterra_alpha import bounds, gram, kernels, oracle, point_spectrum, special
from volterra_alpha.errors import CancellationError
from volterra_alpha.transform import LpContext

CTX22 = LpContext(2.0, 2.0)


def _criterion(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_halmos_anchor():
    t0 = time.perf_counter()
    exact = gram.norm_22(1.0)
    err_exact = abs(exact - 2.0 / math.pi)
    sigma = oracle.largest_singular_value(oracle.discretize(1.0, 4096))
    err_oracle = abs(sigma - exact)
    elapsed = time.perf_counter() - t0
    ok = err_exact <= 1e-8 and err_oracle <= 1e-3 and elapsed <= 60.0
    _criterion(
        1,
        ok,
        f"norm(1) = 2/pi within {err_exact:.2e} (tol 1e-8), "
        f"oracle within {err_oracle:.2e} (tol 1e-3), {elapsed:.1f}s <= 60s",
    )


def test_criterion_02_limit_zero():
    t0 = time.perf_counter()
    z0 = gram.find_zeros(math.inf, 1)[0]
    elapsed = time.perf_counter() - t0
    err = abs(z0 - 1.445796)
    ok = err <= 1e-5 and elapsed <= 1.0
    _criterion(2, ok, f"h0(inf) = {z0:.6f} within {err:.2e} (tol 1e-5), {elapsed:.2f}s <= 1s")


def test_criterion_03_point_spectrum():
    t0 = time.perf_counter()
    worst_eig = 0.0
    for alpha in (0.3, 0.5, 0.7):
        eigs = oracle.top_eigenvalues(oracle.discretize(alpha, 2048), 5)
        expect = [point_spectrum.eigenvalue(alpha, n) for n in range(5)]
        worst_eig = max(worst_eig, max(abs(a - b) for a, b in zip(eigs, expect)))
    worst_rho = 0.0
    for alpha in (1.0, 1.5, 2.0):
        worst_rho = max(
            worst_rho, oracle.spectral_radius_estimate(oracle.discretize(alpha, 2048))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_eig <= 2e-3 and worst_rho <= 5e-3 and elapsed <= 300.0
    _criterion(
        3,
        ok,
        f"eigenvalue err {worst_eig:.2e} (tol 2e-3), radius {worst_rho:.2e} "
        f"(tol 5e-3), {elapsed:.1f}s <= 300s",
    )


def test_criterion_04_eigen_residuals():
    worst = 0.0
    for alpha in (0.2, 0.5, 0.8):
        for n in range(5):
            worst = max(worst, point_spectrum.eigen_residual(alpha, n, 4096, 2))
    ok = worst <= 5e-3
    _criterion(4, ok, f"worst eigen residual {worst:.2e} (tol 5e-3) at N=4096")


def test_criterion_05_gram_unit_alpha():
    formula = [4.0 / (math.pi**2 * (1 + 2 * n) ** 2) for n in range(4)]
    estimates = oracle.top_gram_eigenvalues(oracle.discretize(1.0, 2048), 4)
    worst_eig = max(abs(a - b) for a, b in zip(formula, estimates))
    x = np.linspace(0.0, 1.0, 101)
    pair = gram.gram_eigenpair(1.0, 1)
    worst_fn = float(np.max(np.abs(pair.eigenfunction(x) - np.cos(3 * math.pi * x / 2))))
    ok = worst_eig <= 1e-3 and worst_fn <= 1e-6
    _criterion(
        5,
        ok,
        f"gram eigenvalue err {worst_eig:.2e} (tol 1e-3), "
        f"eigenfunction vs cosine {worst_fn:.2e} (tol 1e-6)",
    )


def test_criterion_06_small_alpha_slope():
    slopes = {a: (1.0 - gram.norm_22(a)) / a for a in (1e-2, 1e-3)}
    in_window = all(0.70 <= s <= 0.80 for s in slopes.values())
    converging = abs(slopes[1e-3] - 0.75) < abs(slopes[1e-2] - 0.75)
    ok = in_window and converging
    _criterion(
        6,
        ok,
        f"(1-norm)/alpha = {slopes[1e-2]:.4f}, {slopes[1e-3]:.4f} in [0.70, 0.80], "
        f"converging toward 0.75",
    )


def test_criterion_07_large_alpha_decay():
    target = 1.0 / math.sqrt(1.445796)
    vals = {a: gram.norm_22(a) * math.sqrt(a) for a in (1e2, 1e3, 1e4)}
    in_window = all(0.80 <= v <= 0.86 for v in vals.values())
    gaps = [abs(vals[a] - target) for a in (1e2, 1e3, 1e4)]
    ok = in_window and gaps[2] < gaps[0]
    _criterion(
        7,
        ok,
        f"norm*sqrt(alpha) = {vals[1e2]:.4f}, {vals[1e3]:.4f}, {vals[1e4]:.4f} "
        f"in [0.80, 0.86], toward {target:.4f}",
    )


def test_criterion_08_bound_sandwich_grid():
    worst_low = worst_high = -math.inf
    agree = True
    for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
        m = oracle.discretize(alpha, 2048)
        for p in (1.5, 2.0, 3.0):
            for q in (1.5, 2.0, 3.0):
                ctx = LpContext(p, q)
                est = oracle.iterate_matrix_norm(m, 1, ctx)
                sw = bounds.norm_sandwich(alpha, ctx)
                worst_low = max(worst_low, sw.lower - est)
                worst_high = max(worst_high, est - sw.upper)
                gap = sw.upper_beta - sw.upper_holder
                choice = bounds.preferred_upper_bound(ctx)
                if choice == "equal":
                    agree &= abs(gap) <= 1e-10
                elif choice == "holder":
                    agree &= gap >= -1e-10
                else:
                    agree &= gap <= 1e-10
    ok = worst_low <= 2e-3 and worst_high <= 2e-3 and agree
    _criterion(
        8,
        ok,
        f"sandwich violations below {worst_low:.2e} / above {worst_high:.2e} "
        f"(tol 2e-3), preferred-bound agreement {agree}",
    )


def test_criterion_09_kernel_identities():
    t0 = time.perf_counter()
    worst_agree = worst_lower = worst_step = worst_semi = worst_three = 0.0
    zs = np.linspace(0.0, 1.0, 101)
    for alpha in (0.3, 0.7, 1.0, 1.5, 3.0):
        for n in range(1, 13):
            spec = kernels.make_kernel_spec(alpha, n)
            for z in zs:
                z = float(z)
                try:
                    gc = kernels.g_closed(spec, z)
                except CancellationError:
                    gc = None
                g = kernels.g_value(spec, z)
                if gc is not None:
                    worst_agree = max(worst_agree, abs(gc - kernels.g_recursive(spec, z)))
                if n >= 2:
                    worst_lower = max(worst_lower, kernels.kernel_lower_bound(spec, z) - g)
    nodes, wts = np.polynomial.legendre.leggauss(512)
    for alpha in (0.5, 0.8, 2.0):
        for n in range(1, 6):
            spec = kernels.make_kernel_spec(alpha, n)
            up = kernels.make_kernel_spec(alpha, n + 1)
            for z in (0.1, 0.5, 0.9):
                worst_step = max(worst_step, kernels.g_step_relation_residual(spec, z))
            for x in np.linspace(0.1, 0.95, 5):
                for y in np.linspace(0.02, 0.9, 5):
                    k_up = kernels.kernel_K(up, float(x), float(y))
                    lo, hi = y ** (1.0 / alpha**n), x**alpha
                    if hi > lo:
                        pts = (nodes + 1.0) / 2.0 * (hi - lo) + lo
                        vals = kernels.kernel_K(spec, pts, float(y))
                        quad = float(np.dot(wts, vals) * (hi - lo) / 2.0)
                    else:
                        quad = 0.0
                    worst_semi = max(worst_semi, abs(k_up - quad))
                    lhs = (spec.a_n + 1.0) * k_up
                    r1 = x**alpha * kernels.kernel_K(spec, float(x**alpha), float(y))
                    r2 = alpha ** (n - 1) * y ** (1.0 / alpha) * kernels.kernel_K(
                        spec, float(x), float(y ** (1.0 / alpha))
                    )
                    worst_three = max(worst_three, abs(lhs - r1 + r2))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_agree <= 1e-7
        and worst_semi <= 1e-6
        and worst_lower <= 1e-9
        and worst_step <= 1e-8
        and worst_three <= 1e-8
        and elapsed <= 120.0
    )
    _criterion(
        9,
        ok,
        f"closed-vs-recursive {worst_agree:.2e} (1e-7), semigroup {worst_semi:.2e} "
        f"(1e-6), bound excess {worst_lower:.2e} (1e-9), one-step {worst_step:.2e} "
        f"(1e-8), three-term {worst_three:.2e} (1e-8), {elapsed:.0f}s <= 120s",
    )


def test_criterion_10_iterate_growth():
    details = []
    ok = True
    for n_max in (40, 50):
        sub = bounds.growth_trend(0.5, 2.0, n_max)
        ok &= sub.contains_target
        ok &= abs(sub.lower_end - sub.target) <= 0.10 * abs(sub.target)
        ok &= abs(sub.upper_end - sub.target) <= 0.10 * abs(sub.target)
        unit = bounds.growth_trend(1.0, 2.0, n_max)
        ok &= unit.contains_target
        ok &= abs(unit.lower_end + 1.0) <= 0.15
        ok &= abs(unit.midpoint + 1.0) <= 0.15
        sup = bounds.growth_trend(2.0, 2.0, n_max)
        ok &= sup.contains_target
        ok &= abs(sup.midpoint - sup.target) <= 0.10 * abs(sup.target)
        details.append(
            f"n_max={n_max}: sub ends ({sub.lower_end:.3f},{sub.upper_end:.3f}) "
            f"vs {sub.target:.3f}; unit mid {unit.midpoint:.3f}; super mid {sup.midpoint:.3f}"
        )
    worst_out = 0.0
    for alpha in (0.5, 1.0, 2.0):
        m = oracle.discretize(alpha, 2048)
        for n in range(2, 7):
            est = oracle.iterate_matrix_norm(m, n, CTX22)
            lo = bounds.iterate_norm_lower(alpha, n, 2.0)
            hi = bounds.iterate_norm_upper(alpha, n, 2.0)
            worst_out = max(worst_out, lo - est, est - hi)
    ok &= worst_out <= 2e-3
    _criterion(10, ok, "; ".join(details) + f"; oracle bracket excess {worst_out:.2e}")


def test_criterion_11_series_and_deformation_bound():
    worst_series = 0.0
    for alpha in (0.2, 0.5, 0.8):
        for z in (0.1, 0.5, 0.9):
            kmax = int(math.log(1e-12 * (1.0 - alpha)) / math.log(alpha)) + 2
            lhs = math.fsum(
                special.q_pochhammer(z, alpha, k) * alpha**k for k in range(kmax)
            )
            rhs = (1.0 - special.euler_product(z, alpha)) / z
            worst_series = max(worst_series, abs(lhs - rhs))
    worst_gap = -math.inf
    for eps in (0.125, 0.1, 0.05, 0.02, 0.01):
        for z in np.linspace(0.0, 1.5, 7):
            gap, bound = gram.deformation_gap(eps, float(z))
            worst_gap = max(worst_gap, gap - bound)
    ok = worst_series <= 1e-10 and worst_gap <= 0.0
    _criterion(
        11,
        ok,
        f"series identity residual {worst_series:.2e} (tol 1e-10), "
        f"deformation gap-minus-bound {worst_gap:.2e} <= 0",
    )


def test_criterion_12_verify_determinism():
    cmd = [sys.executable, "-m", "volterra_alpha.cli", "verify", "--grid-n", "1024", "--format", "csv"]
    # the package under test, also when pytest alone put src on sys.path
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(volterra_alpha.__file__)))
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _criterion(
        12,
        ok,
        f"verify exit codes ({first.returncode}, {second.returncode}), "
        f"byte-identical reports: {first.stdout == second.stdout}",
    )
