"""Deterministic invariant suite behind the ``verify`` CLI command.

Each check returns rows (name, residual, tolerance, passed); residuals are
worst cases over fixed sampling grids, so two runs with the same grid size
and seed produce identical reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, gram, kernels, oracle, point_spectrum, special
from .transform import LpContext, apply_T, apply_T_adjoint, inner, lp_norm, midpoints


@dataclass(frozen=True)
class CheckRow:
    invariant: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


def _row(name, residual, tolerance):
    return CheckRow(name, float(residual), float(tolerance))


def check_q_identities():
    rows = []
    worst_pascal = 0.0
    worst_pos = 0.0
    for alpha in (0.1, 0.5, 0.9, 1.0, 2.0):
        for k in range(1, 21):
            for j in range(1, k + 1):
                lhs = special.gaussian_binomial(k, j, alpha)
                rhs = special.gaussian_binomial(k - 1, j - 1, alpha) + alpha**j * special.gaussian_binomial(k - 1, j, alpha)
                worst_pascal = max(worst_pascal, abs(lhs - rhs) / abs(rhs))
                worst_pos = max(worst_pos, -lhs)
    rows.append(_row("q_pascal_recursion", worst_pascal, 1e-12))
    rows.append(_row("q_binomial_positivity", max(worst_pos, 0.0), 0.0))

    worst_thm = 0.0
    for alpha in (0.1, 0.5, 0.9, 1.0, 2.0):
        for k in range(1, 16):
            for t in (-1.0, 0.5, 1.0, 2.0):
                terms = [
                    alpha ** (j * (j - 1) // 2) * special.gaussian_binomial(k, j, alpha) * t**j
                    for j in range(k + 1)
                ]
                lhs = math.fsum(terms)
                rhs = np.prod([1.0 + alpha**j * t for j in range(k)])
                # relative to the conditioning scale of the alternating sum
                scale = max(abs(rhs), max(abs(v) for v in terms), 1.0)
                worst_thm = max(worst_thm, abs(lhs - rhs) / scale)
    rows.append(_row("q_binomial_theorem", worst_thm, 1e-10))

    worst_series = 0.0
    for alpha in (0.2, 0.5, 0.8):
        for z in (0.1, 0.5, 0.9):
            # truncation index from the geometric tail alpha^k/(1-alpha)
            kmax = int(math.log(1e-12 * (1.0 - alpha)) / math.log(alpha)) + 2
            lhs = math.fsum(
                special.q_pochhammer(z, alpha, k) * alpha**k for k in range(kmax)
            )
            rhs = (1.0 - special.euler_product(z, alpha, 1e-14)) / z
            worst_series = max(worst_series, abs(lhs - rhs))
    rows.append(_row("q_series_identity", worst_series, 1e-10))
    return rows


def check_kernel_identities():
    rows = []
    zs = np.linspace(0.0, 1.0, 51)
    worst_range = 0.0
    worst_agree = 0.0
    worst_lower = 0.0
    for alpha in (0.3, 0.7, 1.0, 1.5, 3.0):
        for n in range(1, 9):
            spec = kernels.make_kernel_spec(alpha, n)
            g = kernels.g_value(spec, zs)
            worst_range = max(worst_range, float(np.max(g - 1.0)), float(np.max(-g)))
            gc, ok = kernels._closed(spec, zs)
            if ok.any():
                gr = kernels._recursive(spec, zs[ok])
                worst_agree = max(worst_agree, float(np.max(np.abs(gc[ok] - gr))))
            if n >= 2:
                lower = np.array([kernels.kernel_lower_bound(spec, float(z)) for z in zs])
                worst_lower = max(worst_lower, float(np.max(lower - g)))
    rows.append(_row("g_range", worst_range, 1e-9))
    rows.append(_row("g_closed_vs_recursive", worst_agree, 1e-7))
    rows.append(_row("g_lower_bound", worst_lower, 1e-9))

    worst_step = 0.0
    worst_three_term = 0.0
    worst_semigroup = 0.0
    nodes, wts = np.polynomial.legendre.leggauss(512)
    xs = np.linspace(0.1, 0.95, 5)
    ys = np.linspace(0.02, 0.9, 5)
    for alpha in (0.5, 0.8, 2.0):
        x_pow = np.array([x**alpha for x in xs])  # scalar powers, as the kernels take them
        for n in range(1, 6):
            spec = kernels.make_kernel_spec(alpha, n)
            up = kernels.make_kernel_spec(alpha, n + 1)
            for z in (0.1, 0.5, 0.9):
                worst_step = max(worst_step, kernels.g_step_relation_residual(spec, z))
            for y in ys:
                k_up = kernels.kernel_K(up, xs, y)
                lhs = (spec.a_n + 1.0) * k_up
                r1 = x_pow * kernels.kernel_K(spec, x_pow, y)
                y_root = y ** (1.0 / alpha)
                r2 = alpha ** (n - 1) * y_root * kernels.kernel_K(spec, xs, y_root)
                worst_three_term = max(worst_three_term, float(np.max(np.abs(lhs - r1 + r2))))
                # K_{n+1}(x, y) = integral of K_1(x, s) K_n(s, y) ds over
                # [y^(1/alpha^n), x^alpha], by 512-point Gauss-Legendre
                lo = y ** (1.0 / alpha**n)
                inside = x_pow > lo
                his = x_pow[inside]
                s_nodes = (nodes + 1.0) / 2.0 * (his[:, None] - lo) + lo
                vals = kernels.kernel_K(spec, s_nodes.ravel(), y).reshape(s_nodes.shape)
                quad = np.zeros(xs.size)
                quad[inside] = [np.dot(wts, v) * (hi - lo) / 2.0 for v, hi in zip(vals, his)]
                worst_semigroup = max(worst_semigroup, float(np.max(np.abs(k_up - quad))))
    rows.append(_row("g_step_relation", worst_step, 1e-8))
    rows.append(_row("kernel_three_term_relation", worst_three_term, 1e-8))
    rows.append(_row("kernel_semigroup", worst_semigroup, 1e-6))
    return rows


def check_transform(grid_n, seed):
    rows = []
    rng = np.random.default_rng(seed)
    worst_dual = 0.0
    worst_eq1 = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(4):
            f = rng.standard_normal(grid_n)
            g = rng.standard_normal(grid_n)
            f = f / lp_norm(f, 2)
            g = g / lp_norm(g, 2)
            worst_dual = max(
                worst_dual,
                abs(inner(apply_T(alpha, f), g) - inner(f, apply_T_adjoint(alpha, g))),
            )
            lhs = apply_T(0.0, g) - apply_T(alpha, g)
            rhs = apply_T_adjoint(1.0 / alpha, g)
            worst_eq1 = max(worst_eq1, lp_norm(lhs - rhs, 2))
    rows.append(_row("adjoint_duality", worst_dual, 5.0 / grid_n))
    rows.append(_row("projector_difference_adjoint", worst_eq1, 5.0 / grid_n))

    x = midpoints(grid_n)
    f_pos = 1.0 + np.sin(7.0 * x) ** 2
    t_prev = None
    worst_pos = 0.0
    worst_mono = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        tf = apply_T(alpha, f_pos)
        worst_pos = max(worst_pos, float(-tf.min()))
        if t_prev is not None:
            worst_mono = max(worst_mono, float((tf - t_prev).max()))
        t_prev = tf
    rows.append(_row("positivity", max(worst_pos, 0.0), 0.0))
    rows.append(_row("alpha_monotonicity", max(worst_mono, 0.0), 0.0))
    return rows


def check_point_spectrum(grid_n):
    rows = []
    worst_resid = 0.0
    for alpha in (0.2, 0.5, 0.8):
        for n in range(5):
            worst_resid = max(
                worst_resid, point_spectrum.eigen_residual(alpha, n, grid_n, 2)
            )
    rows.append(_row("eigen_residual_l2", worst_resid, 5e-3))

    worst_rec = 0.0
    for alpha in (0.2, 0.5, 0.8):
        for n in range(1, 6):
            fn = point_spectrum.eigenfunction(alpha, n)
            lam = point_spectrum.eigenvalue(alpha, n)
            a_coef = alpha / lam
            b_coef = alpha / (1.0 - alpha)
            c = fn.coeffs
            for k in range(n):
                step = (a_coef * alpha**k - b_coef) / (k + 1)
                worst_rec = max(worst_rec, abs(c[k + 1] - step * c[k]) / abs(c[k + 1]))
    rows.append(_row("eigen_coefficient_recursion", worst_rec, 1e-12))

    resids = point_spectrum.projection_residuals(
        0.5, 5, lambda x: np.sin(math.pi * x), min(grid_n, 1024)
    )
    worst_monotone = max(
        (resids[i + 1] - resids[i] for i in range(len(resids) - 1)), default=0.0
    )
    rows.append(_row("projection_residual_monotone", max(worst_monotone, 0.0), 1e-12))
    return rows


def check_oracle(grid_n):
    rows = []
    n = min(grid_n, 1024)
    m = oracle.discretize(0.5, n)
    eigs = oracle.top_eigenvalues(m, 5)
    expect = [point_spectrum.eigenvalue(0.5, k) for k in range(5)]
    worst = max(abs(a - b) for a, b in zip(eigs, expect))
    rows.append(_row("oracle_point_spectrum_alpha_0.5", worst, 2e-3))

    rho = oracle.spectral_radius_estimate(oracle.discretize(1.5, n))
    rows.append(_row("oracle_quasi_nilpotent_alpha_1.5", rho, 5e-3))

    sigma = oracle.largest_singular_value(oracle.discretize(1.0, n))
    rows.append(_row("oracle_halmos_norm", abs(sigma - 2.0 / math.pi), 4.0 / n))
    return rows


def check_gram(grid_n):
    rows = []
    worst_order = 0.0
    worst_boundary = 0.0
    for alpha in (0.3, 1.0, 3.0):
        pairs = [gram.gram_eigenpair(alpha, k) for k in range(6)]
        for a, b in zip(pairs, pairs[1:]):
            worst_order = max(worst_order, b.eigenvalue - a.eigenvalue)
        for pair in pairs[:3]:
            worst_boundary = max(worst_boundary, abs(pair.eigenfunction(1.0)))
    rows.append(_row("gram_eigenvalue_ordering", max(worst_order, 0.0), 0.0))
    rows.append(_row("gram_boundary_condition", worst_boundary, 1e-10))

    worst_resid = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for k in range(3):
            pair = gram.gram_eigenpair(alpha, k)
            worst_resid = max(worst_resid, gram.operator_residual(pair, grid_n))
    rows.append(_row("gram_operator_residual", worst_resid, 5e-3))

    worst_deform = 0.0
    for eps in (0.125, 0.1, 0.05, 0.01):
        for z in (0.0, 0.5, 1.0, 1.5):
            gap, bound = gram.deformation_gap(eps, z)
            worst_deform = max(worst_deform, gap - bound)
    rows.append(_row("deformation_gap_bound", max(worst_deform, 0.0), 0.0))

    min_slope = math.inf
    for z in np.linspace(0.0, 1.5, 31):
        min_slope = min(min_slope, abs(gram.eval_H_derivative(1.0 / 0.005 - 1.0, z)))
    rows.append(_row("derivative_floor_near_limit", max(0.02 - min_slope, 0.0), 0.0))
    return rows


def check_bounds(grid_n):
    rows = []
    worst_order = 0.0
    worst_pref = 0.0
    alphas = (0.1, 0.4, 1.0, 2.5, 10.0)
    ps = (1.2, 1.5, 2.0, 3.0, 6.0)
    qs = (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)
    for alpha in alphas:
        for p in ps:
            for q in qs:
                ctx = LpContext(p, q)
                sw = bounds.norm_sandwich(alpha, ctx)
                worst_order = max(worst_order, sw.lower - sw.upper)
                pref = bounds.preferred_upper_bound(ctx)
                gap = sw.upper_beta - sw.upper_holder
                if pref == "equal":
                    worst_pref = max(worst_pref, abs(gap))
                elif pref == "holder" and gap < -1e-10:
                    worst_pref = max(worst_pref, -gap)
                elif pref == "beta" and gap > 1e-10:
                    worst_pref = max(worst_pref, gap)
    rows.append(_row("sandwich_order", max(worst_order, 0.0), 0.0))
    rows.append(_row("preferred_bound_agreement", worst_pref, 1e-10))

    n = min(grid_n, 512)
    ctx22 = LpContext(2.0, 2.0)
    worst_contain = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
        est = oracle.largest_singular_value(oracle.discretize(alpha, n))
        sw = bounds.norm_sandwich(alpha, ctx22)
        worst_contain = max(worst_contain, sw.lower - est, est - sw.upper)
    rows.append(_row("oracle_in_sandwich_22", max(worst_contain, 0.0), 2e-3))

    worst_mod = 0.0
    for a, b in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (0.3, 2.7)):
        ma = oracle.discretize(a, n)
        mb = oracle.discretize(b, n)
        est = oracle.matrix_norm_22(ma, mb)
        worst_mod = max(worst_mod, est - bounds.holder_modulus(a, b, ctx22))
    rows.append(_row("holder_modulus_dominates", max(worst_mod, 0.0), 2e-3))

    worst_norm_sand = 0.0
    for alpha in (0.2, 1.0, 5.0):
        sw = bounds.norm_sandwich(alpha, ctx22)
        val = gram.norm_22(alpha)
        worst_norm_sand = max(worst_norm_sand, sw.lower - val, val - sw.upper)
    rows.append(_row("exact_norm_in_sandwich", max(worst_norm_sand, 0.0), 1e-12))
    return rows


def run_all(grid_n, seed):
    """Run every invariant check; returns a list of CheckRow."""
    rows = []
    rows += check_q_identities()
    rows += check_kernel_identities()
    rows += check_transform(grid_n, seed)
    rows += check_point_spectrum(grid_n)
    rows += check_oracle(grid_n)
    rows += check_gram(grid_n)
    rows += check_bounds(grid_n)
    return rows
