"""Iterated kernels of the operator family.

The n-th power of the operator has kernel
``K_n(x, y) = b_n * 1{y <= x^(a^n)} * x^(a_n) * g_n(x^(-a^n) y)``
with coefficient sequences a_n, b_n and profile functions g_n defined by a
one-dimensional integral recursion.  Two independent evaluators are
provided for g_n:

* ``g_closed`` sums the explicit alternating series.  Its terms can dwarf
  the result (the series has Gaussian-binomial coefficients times
  ``alpha**C(k,2)``), so it self-rejects when the largest term exceeds
  ``CANCELLATION_LIMIT`` and callers fall back to the recursion.
* ``g_recursive`` evaluates the integral recursion level by level with
  adaptive Gauss-Legendre panels, interpolating each level on a graded
  grid.  All intermediate quantities are nonnegative, so it is stable for
  every (alpha, n) at the cost of quadrature error ~1e-9 per level.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import CancellationError, DomainError, QuadratureError
from .special import UNIT_TOLERANCE, _log_one_minus_pow, log_gamma

# Largest tolerated ratio between the biggest series term and the O(1)
# scale of g.  Terms are accurate to ~1e-14 relative, so this cap keeps
# the absolute error of an accepted closed-form value below ~1e-8.
CANCELLATION_LIMIT = 1e6


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one iterated kernel, with cached coefficients."""

    alpha: float
    n: int
    a_n: float
    b_n: float
    log_b_n: float

    @property
    def is_unit(self):
        return abs(self.alpha - 1.0) < UNIT_TOLERANCE


def _check_spec_args(alpha, n):
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if n < 1 or int(n) != n:
        raise DomainError(f"kernel order must be a positive integer, got {n}")


def _log_b_values(alpha, n_max):
    """log b_1, ..., log b_{n_max}.  Off alpha = 1 each is accumulated
    termwise, log b_n = sum_{k<n} log|1 - alpha| - log|1 - alpha^k|, so
    it stays finite for n up to 1e4 even when b_n itself under- or
    overflows."""
    if abs(alpha - 1.0) < UNIT_TOLERANCE:
        return [-log_gamma(n) if n > 1 else 0.0 for n in range(1, n_max + 1)]
    la = math.log(alpha)
    log_f1 = _log_one_minus_pow(la, 1)
    out = [0.0]
    for k in range(1, n_max):
        out.append(out[-1] + (log_f1 - _log_one_minus_pow(la, k)))
    return out


def _spec(alpha, n, log_b):
    if abs(alpha - 1.0) < UNIT_TOLERANCE:
        a = float(n - 1)
    else:
        la = math.log(alpha)
        # a_n = (alpha - alpha^n)/(1 - alpha) = alpha * expm1((n-1) la)/expm1(la)
        arg = (n - 1) * la
        if arg > 709.0:
            a = math.inf  # alpha^n beyond float range; log_b_n stays finite
        else:
            a = alpha * math.expm1(arg) / math.expm1(la)
    try:
        b = math.exp(log_b)
    except OverflowError:
        b = math.inf
    return KernelSpec(alpha=float(alpha), n=n, a_n=a, b_n=b, log_b_n=log_b)


def make_kernel_spec(alpha, n):
    """Build a KernelSpec, taking the analytic limit at alpha = 1."""
    _check_spec_args(alpha, n)
    n = int(n)
    return _spec(alpha, n, _log_b_values(alpha, n)[-1])


def make_kernel_specs(alpha, n_max):
    """make_kernel_spec(alpha, n) for n = 1..n_max, with identical values,
    in one O(n_max) pass."""
    _check_spec_args(alpha, n_max)
    n_max = int(n_max)
    return [_spec(alpha, n, log_b) for n, log_b in enumerate(_log_b_values(alpha, n_max), 1)]


def _profile_exponents(alpha, n):
    """Exponents e_k = sum_{i=1}^{k} alpha^(-i) of the closed-form series."""
    inv = 1.0 / alpha
    return np.cumsum(np.concatenate(([0.0], inv ** np.arange(1, n))))


def g_closed(spec, z):
    """Closed-form alternating sum for g_n(z), z in [0, 1].

    Raises CancellationError when the term magnitudes make the double
    precision result untrustworthy, or when the computed value strays
    outside [-1e-6, 1 + 1e-6]; callers should then use g_recursive.
    """
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"g is defined on [0, 1], got z = {z}")
    n = spec.n
    if n == 1 or z == 0.0:
        return 1.0
    if spec.is_unit:
        return (1.0 - z) ** (n - 1)
    alpha = spec.alpha
    la = math.log(alpha)
    lz = math.log(z)
    exps = _profile_exponents(alpha, n)

    # magnitude prescan in log space: reject hopeless cancellation early
    log_coeff = 0.0
    max_log = 0.0
    for k in range(1, n):
        log_coeff += (
            _log_one_minus_pow(la, n - k) - _log_one_minus_pow(la, k) + (k - 1) * la
        )
        max_log = max(max_log, log_coeff + exps[k] * lz)
    if max_log > math.log(CANCELLATION_LIMIT):
        raise CancellationError(
            f"closed-form g_{n} at z={z}, alpha={alpha} needs terms of size "
            f"exp({max_log:.1f}); falling back to the recursion is required",
            magnitude_ratio=math.exp(min(max_log, 700.0)),
        )

    # coefficient recurrence keeps every term accurate to ~1e-14 relative
    terms = [1.0]
    coeff = 1.0
    sign = 1.0
    try:
        for k in range(1, n):
            coeff *= (
                abs(math.expm1((n - k) * la))
                / abs(math.expm1(k * la))
                * math.exp((k - 1) * la)
            )
            sign = -sign
            terms.append(sign * coeff * math.exp(exps[k] * lz))
        total = math.fsum(terms)
    except OverflowError as exc:
        raise CancellationError(
            f"closed-form g_{n} coefficients overflow at alpha={alpha}"
        ) from exc
    if not math.isfinite(total):
        raise CancellationError(f"closed-form g_{n} is non-finite at alpha={alpha}")
    if not -1e-6 <= total <= 1.0 + 1e-6:
        raise CancellationError(
            f"closed-form g_{n}({z}) = {total} fell outside [0, 1] beyond roundoff",
            magnitude_ratio=max(abs(t) for t in terms) / max(abs(total), 1e-300),
        )
    return total


# ---------------------------------------------------------------------------
# recursive evaluation

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PYRAMID_CACHE = {}
_PYRAMID_LOCK = threading.Lock()
# level-interpolant nodes; 2049 keeps the level-to-level interpolation error
# around 1e-10, an order below the per-level quadrature target
_GRID_SIZE = 2049


def _adaptive_panels(fn, a, b, tol, min_panels, max_rounds=14):
    """Adaptive 16-point Gauss-Legendre over [a, b].

    ``fn`` must accept an array.  Panels whose 16- vs 8-point estimates
    disagree are halved; panel evaluations are batched into single calls.
    """
    if b <= a:
        return 0.0
    edges = np.linspace(a, b, max(int(min_panels), 2) + 1)
    panels = np.column_stack([edges[:-1], edges[1:]])
    total = 0.0
    for _ in range(max_rounds):
        mids = (panels[:, 0] + panels[:, 1]) / 2.0
        half = (panels[:, 1] - panels[:, 0]) / 2.0
        nodes = mids[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = fn(nodes.ravel()).reshape(nodes.shape)
        fine = half * (vals @ _GL_WEIGHTS)
        # embedded coarse rule: 8-point Gauss on the same panel
        coarse_nodes = mids[:, None] + half[:, None] * _C8_NODES[None, :]
        cvals = fn(coarse_nodes.ravel()).reshape(coarse_nodes.shape)
        coarse = half * (cvals @ _C8_WEIGHTS)
        err = np.abs(fine - coarse)
        budget = tol * np.maximum(2.0 * half / (b - a), 1e-3)
        ok = err <= budget
        total += float(fine[ok].sum())
        if ok.all():
            return total
        bad = panels[~ok]
        mids_bad = (bad[:, 0] + bad[:, 1]) / 2.0
        panels = np.vstack(
            [
                np.column_stack([bad[:, 0], mids_bad]),
                np.column_stack([mids_bad, bad[:, 1]]),
            ]
        )
    leftover = float(fine[~ok].sum())
    raise QuadratureError(
        "adaptive quadrature stalled",
        estimate=total + leftover,
        achieved_error=float(err[~ok].sum()),
    )


_C8_NODES, _C8_WEIGHTS = np.polynomial.legendre.leggauss(8)


_LOG_CUTOFF = 36.0  # exp(-36) ~ 2e-16 bounds the discarded tail


def _level_integrand(alpha, level, lower_interp, power_map):
    """Integrand of the log-substituted form of the recursion at one level.

    Substituting v = w^(a_level + 1) and then v = e^(-y) turns
    ``(a+1) * integral of w^a g(w^(-alpha^level) z) dw`` into
    ``integral over y in [0, e |log z|] of g(z e^(y/e)) e^(-y)``
    with e = e_level = sum alpha^(-i).  In the y variable the profile
    varies on an O(1) scale for every alpha and level, and the tail
    beyond y = 36 is below 2e-16.
    """
    e = float(np.sum((1.0 / alpha) ** np.arange(1, level + 1)))

    def integrand(z, y):
        u = np.clip(z * np.exp(y / e), 0.0, 1.0)
        damp = np.exp(-y)
        if lower_interp is None:  # level 1: g_1 == 1
            return damp
        return np.clip(lower_interp(u ** (1.0 / power_map)), 0.0, 1.0) * damp

    return e, integrand


def _pyramid(alpha, n_top, quad_points):
    """Interpolants of g_2 .. g_{n_top} on a power-graded grid, cached."""
    with _PYRAMID_LOCK:
        return _pyramid_locked(alpha, n_top, quad_points)


def _pyramid_locked(alpha, n_top, quad_points):
    key = (float(alpha), int(quad_points))
    levels = _PYRAMID_CACHE.setdefault(key, [])
    power_map = math.ceil(4.0 * max(alpha, 1.0))
    s = np.linspace(0.0, 1.0, _GRID_SIZE)
    zgrid = s**power_map
    min_panels = max(4, int(quad_points) // 16)
    while len(levels) < n_top - 1:
        level = len(levels) + 1  # building g_{level+1} from g_level
        lower = levels[-1] if levels else None
        e, integrand = _level_integrand(alpha, level, lower, power_map)
        vals = np.empty(_GRID_SIZE)
        for i, z in enumerate(zgrid):
            if z == 0.0:
                vals[i] = 1.0
            elif z == 1.0:
                vals[i] = 0.0
            else:
                y_top = min(e * -math.log(z), _LOG_CUTOFF)
                vals[i] = _adaptive_panels(
                    lambda y, z=z: integrand(z, y), 0.0, y_top, 1e-10, min_panels
                )
        levels.append(CubicSpline(s, np.clip(vals, 0.0, 1.0)))
    return levels, power_map


def g_recursive(spec, z, quad_points=256):
    """g_n(z) through the integral recursion (depth n - 1).

    Each level is resolved by adaptive Gauss-Legendre quadrature with an
    absolute target of ~1e-9 and memoized as an interpolant, so repeated
    evaluations at the same alpha share the pyramid of lower levels.
    """
    if quad_points < 64:
        raise DomainError(f"quad_points must be at least 64, got {quad_points}")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"g is defined on [0, 1], got z = {z}")
    n = spec.n
    if n == 1:
        return 1.0
    if z == 0.0:
        return 1.0
    if z == 1.0:
        return 0.0
    if spec.is_unit:
        levels, power_map = _pyramid(1.0, n, quad_points)
    else:
        levels, power_map = _pyramid(spec.alpha, n, quad_points)
    alpha = 1.0 if spec.is_unit else spec.alpha
    lower = levels[n - 3] if n >= 3 else None
    e, integrand = _level_integrand(alpha, n - 1, lower, power_map)
    y_top = min(e * -math.log(z), _LOG_CUTOFF)
    min_panels = max(4, int(quad_points) // 16)
    return _adaptive_panels(lambda y: integrand(z, y), 0.0, y_top, 1e-10, min_panels)


def g_value(spec, z, quad_points=256):
    """g_n(z) by the closed form, falling back to the recursion on cancellation."""
    try:
        return g_closed(spec, z)
    except CancellationError:
        return g_recursive(spec, z, quad_points)


def g_step_relation_residual(spec, z):
    """Residual of the one-step relation linking g_{n+1} to g_n.

    Pure verification hook: returns
    ``|g_{n+1}(z) - g_n(z) + alpha^(n-1) z^(1/alpha) g_n(z^(1/alpha))|``.
    """
    alpha = spec.alpha
    n = spec.n
    up = make_kernel_spec(alpha, n + 1)
    g_np1 = g_closed(up, z)
    g_n = g_closed(spec, z)
    g_n_pow = g_closed(spec, z ** (1.0 / alpha))
    return abs(g_np1 - g_n + alpha ** (n - 1) * z ** (1.0 / alpha) * g_n_pow)


def kernel_K(spec, x, y, quad_points=256):
    """Iterated kernel K_n(x, y) on [0, 1]^2; zero outside y <= x^(alpha^n)."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError(f"kernel arguments must lie in [0, 1], got ({x}, {y})")
    alpha, n = spec.alpha, spec.n
    if x == 0.0:
        # indicator forces y = 0; 0^0 := 1 covers the n = 1 base case
        if y > 0.0:
            return 0.0
        return spec.b_n if spec.a_n == 0.0 else 0.0
    lx = math.log(x)
    a_pow_n = alpha**n
    # log of x^(alpha^n); guard inf * 0 at x = 1 with extreme orders
    log_support = a_pow_n * lx if x < 1.0 else 0.0
    ly = math.log(y) if y > 0.0 else -math.inf
    if ly > log_support:
        return 0.0
    z = math.exp(ly - log_support) if y > 0.0 else 0.0
    g = g_value(spec, min(z, 1.0), quad_points)
    log_pref = spec.log_b_n + (spec.a_n * lx if x < 1.0 else 0.0)
    if log_pref < -745.0:
        return 0.0
    return math.exp(log_pref) * max(g, 0.0)


def kernel_lower_bound(spec, z):
    """Profile lower bound (1 - z^(1/((n-1) alpha)))^(n-1), n >= 2."""
    if spec.n < 2:
        raise DomainError("the profile lower bound needs n >= 2")
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"bound is defined on [0, 1], got z = {z}")
    expo = 1.0 / ((spec.n - 1) * spec.alpha)
    return (1.0 - z**expo) ** (spec.n - 1)
