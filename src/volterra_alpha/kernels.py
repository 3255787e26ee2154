"""Iterated kernels of the operator family.

The n-th power of the operator has kernel
``K_n(x, y) = b_n * 1{y <= x^(a^n)} * x^(a_n) * g_n(x^(-a^n) y)``
with coefficient sequences a_n, b_n and profile functions g_n defined by a
one-dimensional integral recursion.  Two independent evaluators are
provided for g_n, each an array core over z:

* ``_closed`` sums the explicit alternating series.  Its exponents and
  coefficients depend on (alpha, n) alone, so each ``KernelSpec``
  computes them once, on first use (``KernelSpec.series``); a point then
  costs n exps and one ``math.fsum``.  The terms can dwarf the result
  (the series has Gaussian-binomial coefficients times ``alpha**C(k,2)``),
  so it rejects a point whose largest term exceeds ``CANCELLATION_LIMIT``,
  and callers fall back to the recursion.
* ``_recursive`` reads g_n from its samples on 2049 graded nodes.  Each
  level is built from the one below, bottom-up from g_1 = 1, and cached
  per (alpha, level); a local 6-point interpolant joins the nodes.  A
  node's integral is the integral over its own cell (up to the next
  node) plus the decayed value at the next node, so one batched adaptive
  Gauss-Legendre quadrature over the 2047 cells, one panel each to
  start (up to 4 for a wide cell), and one backward pass over them build
  a level: 2047-2200 panels for alpha >= 0.7, up to ~12,300 where small
  alpha caps every cell at y = 36.  All intermediate quantities are
  nonnegative, so it is stable for every (alpha, n) at an error of
  ~1e-10 per level, except near z = 1 for alpha below ~0.05: there the
  nodes miss the steep drop of g_n to 0.  For large alpha a high level's
  quadrature stalls (``QuadratureError``): from an empty cache, first at
  order 60 for alpha = 3, 47 for alpha = 10 and 43 for alpha = 100.

``g_value`` gives g_n at a float or an array of z (the closed form where
it is accepted, the recursion for the rest in one batch), and
``kernel_K`` gives K_n at a float or an array of x for one y; a 0-d
argument gives a float.  The scalar ``g_closed`` and ``g_recursive``
check their argument and evaluate one point through one core.  Every
exp, log and power is a numpy ufunc on the array of points, and each
point's arithmetic depends on that point alone, so a point gets the
same bits alone, in any array and in any order.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CancellationError, DomainError, QuadratureError
from .errors import _integer, _real, _unit_interval
from .special import _log_one_minus_pow, is_unit, log_gamma

# Largest tolerated ratio between the biggest series term and the O(1)
# scale of g.  Terms are accurate to ~1e-14 relative, so this cap keeps
# the absolute error of an accepted closed-form value below ~1e-8.
CANCELLATION_LIMIT = 1e6
_CLOSED_BLOCK = 512  # points per pass of the closed form; bounds its lists of terms
# the largest kernel order, checked before any work: make_kernel_specs
# builds every spec up to its n_max, about 0.4 s at this order
MAX_KERNEL_ORDER = 10**5


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one iterated kernel, with cached coefficients."""

    alpha: float
    n: int
    a_n: float
    b_n: float
    log_b_n: float

    @cached_property
    def series(self):
        """The closed form's exponents, log coefficient magnitudes and
        signed coefficients (see ``_series_coefficients``), computed on
        first use; they depend on (alpha, n) alone."""
        return _series_coefficients(self.alpha, self.n)


def _log_b_values(alpha, n_max):
    """log b_1, ..., log b_{n_max}.  Off alpha = 1 each is accumulated
    termwise, log b_n = sum_{k<n} log|1 - alpha| - log|1 - alpha^k|, so
    it stays finite for n up to 1e4 even when b_n itself under- or
    overflows."""
    if is_unit(alpha):
        return [-log_gamma(n) if n > 1 else 0.0 for n in range(1, n_max + 1)]
    la = math.log(alpha)
    log_f1 = _log_one_minus_pow(la, 1)
    out = [0.0]
    for k in range(1, n_max):
        out.append(out[-1] + (log_f1 - _log_one_minus_pow(la, k)))
    return out


def _spec(alpha, n, log_b):
    if is_unit(alpha):
        a = float(n - 1)
    else:
        la = math.log(alpha)
        # a_n = (alpha - alpha^n)/(1 - alpha) = alpha * expm1((n-1) la)/expm1(la)
        arg = (n - 1) * la
        if arg > 709.0:
            a = math.inf  # alpha^n beyond float range; log_b_n stays finite
        else:
            a = alpha * math.expm1(arg) / math.expm1(la)
            if not math.isfinite(a):  # the product overflows before the division
                a = alpha * (math.expm1(arg) / math.expm1(la))
    try:
        b = math.exp(log_b)
    except OverflowError:
        b = math.inf
    return KernelSpec(alpha=alpha, n=n, a_n=a, b_n=b, log_b_n=log_b)


def make_kernel_spec(alpha, n):
    """Build a KernelSpec, taking the analytic limit at alpha = 1."""
    return make_kernel_specs(alpha, n)[-1]


def make_kernel_specs(alpha, n_max):
    """make_kernel_spec(alpha, n) for n = 1..n_max, in one O(n_max) pass."""
    alpha = _real(alpha, 0.0, math.inf, "alpha")
    n_max = _integer(n_max, 1, "kernel order", most=MAX_KERNEL_ORDER)
    return [_spec(alpha, n, log_b) for n, log_b in enumerate(_log_b_values(alpha, n_max), 1)]


def _profile_exponents(alpha, n):
    """Exponents e_k = sum_{i=1}^{k} alpha^(-i) of the closed-form series.

    A power alpha^(-i) past e^600 is set to inf instead of being formed:
    either way z^(e_k) = 0 for every z < 1, and nothing overflows.
    """
    last = n - 1 if alpha >= 1.0 else min(n - 1, int(600.0 / -math.log(alpha)))
    powers = [[0.0], (1.0 / alpha) ** np.arange(1, last + 1)]
    if last < n - 1:
        powers.append(np.full(n - 1 - last, np.inf))
    return np.cumsum(np.concatenate(powers))


def _series_coefficients(alpha, n):
    """The z-independent part of the closed-form series, n >= 2, alpha != 1:
    the exponents e_1..e_{n-1}, the logs of the coefficient magnitudes
    (for the cancellation prescan) and the signed coefficients."""
    la = math.log(alpha)
    # coefficient recurrence keeps every term accurate to ~1e-14 relative
    signed = []
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
            signed.append(sign * coeff)
    except OverflowError:
        coeff = math.inf
    if not math.isfinite(coeff):  # once inf or nan, it stays so
        # the prescan then rejects every point
        signed = [math.inf] * (n - 1)
    with np.errstate(divide="ignore"):  # tiny alpha underflows coefficients to 0
        log_coeffs = np.log(np.abs(signed)).tolist()
    return _profile_exponents(alpha, n)[1:].tolist(), log_coeffs, signed


def _closed(spec, z):
    """The closed-form alternating sum for g_n at each point of the array z
    in [0, 1].

    Returns ``(values, ok)``.  ``ok`` marks the accepted points; a point is
    rejected (its value left nan) when its largest term exceeds
    ``CANCELLATION_LIMIT`` or the coefficients overflow, or when the sum
    strays outside [-1e-6, 1 + 1e-6].  Each accepted point's terms are
    summed by ``math.fsum``.
    """
    values = np.ones(z.shape)  # g_1 = 1 and g_n(0) = 1
    n = spec.n
    if n == 1:
        return values, np.ones(z.shape, dtype=bool)
    values[z == 1.0] = 0.0  # g_n(1) = 0 for n >= 2; the sum would cancel to rounding
    inner = (z > 0.0) & (z < 1.0)
    if is_unit(spec.alpha):
        values[inner] = (1.0 - z[inner]) ** (n - 1)
        return values, np.ones(z.shape, dtype=bool)
    exps, log_coeffs, signed = spec.series
    lz = np.log(z[inner])
    # magnitude prescan in log space: reject hopeless cancellation early
    max_log = np.zeros(lz.shape)
    for log_coeff, e in zip(log_coeffs, exps):
        np.maximum(max_log, log_coeff + e * lz, out=max_log)
    idx = np.flatnonzero(max_log <= math.log(CANCELLATION_LIMIT))
    inner_values = np.full(lz.shape, np.nan)
    for b in range(0, idx.size, _CLOSED_BLOCK):
        part = idx[b : b + _CLOSED_BLOCK]
        powers = np.exp(np.multiply.outer(exps, lz[part]))
        terms = np.ones((n, powers.shape[1]))  # one column per point
        terms[1:] = np.reshape(signed, (-1, 1)) * powers
        # no term exceeds ~CANCELLATION_LIMIT, so no sum overflows
        inner_values[part] = np.fromiter(map(math.fsum, terms.T.tolist()), float, terms.shape[1])
    inner_values[(inner_values < -1e-6) | (inner_values > 1.0 + 1e-6)] = np.nan
    values[inner] = inner_values
    return values, ~np.isnan(values)


def g_closed(spec, z):
    """Closed-form alternating sum for g_n(z), z in [0, 1].

    Raises CancellationError when the term magnitudes make the double
    precision result untrustworthy, or when the computed value strays
    outside [-1e-6, 1 + 1e-6]; callers should then use g_recursive.
    """
    values, ok = _closed(spec, _unit_interval([z], "g argument z"))
    if not ok[0]:
        raise CancellationError(
            f"closed-form g_{spec.n}({z}) at alpha={spec.alpha} loses too many digits "
            "to cancellation; use the recursion"
        )
    return float(values[0])


# ---------------------------------------------------------------------------
# recursive evaluation

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# embedded coarse rule: 8-point Gauss on the same panel
_C8_NODES, _C8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PANEL_NODES = np.concatenate([_GL_NODES, _C8_NODES])
_PANEL_WEIGHTS = np.zeros((24, 2))  # columns: the 16- and the 8-point rule
_PANEL_WEIGHTS[:16, 0], _PANEL_WEIGHTS[16:, 1] = _GL_WEIGHTS, _C8_WEIGHTS
_MIN_PANELS = 1  # start panels per cell; 16 move the level samples by ~2e-12
# widest start panel: a cell capped at y = 36 starts as 4 panels and refines
# once, where one panel would take three more rounds and ~17% more panels
_START_SPAN = 9.0
# panels per integrand call: 512 keep each of the integrand's temporaries
# at ~98 KB, and verify's 35 levels build ~20% faster than with 2048
# (~393 KB each); a panel's sums do not depend on its block
_BLOCK = 512
_MAX_ROUNDS = 14  # halvings before a level's quadrature gives up
# level nodes s, mapped to z = s**power_map; 2049 keeps the interpolation
# error around 1e-10, an order below the per-level quadrature target
_S = np.linspace(0.0, 1.0, 2049)
_STENCIL = 6  # points of the local interpolant; 4 stray 150x further from g_closed
_LOG_CUTOFF = 36.0  # each cell ends by y = 36: exp(-36) ~ 2e-16 bounds what is dropped
# (alpha, n) -> forward differences of the samples of g_n at the nodes, for
# one alpha at a time: a level holds ~0.43 MB, and sweeps ask alpha by alpha
_LEVELS = {}


def _adaptive_panels(fn, upper, tol):
    """Adaptive 16-point Gauss-Legendre over every interval [0, upper_i].

    ``fn(owner, y)`` evaluates, elementwise, the integrand of interval
    ``owner`` at ``y``; it gets one row of points per panel and a column
    of owners.  ``tol`` holds one error target per interval.  Each
    interval starts as ``_MIN_PANELS`` equal panels, or as many as keep
    them within ``_START_SPAN``, and a panel whose 16- vs 8-point
    estimates disagree by more than its share of its interval's target
    (its width's fraction, at least 1e-3) is halved.  The panels of a
    round are evaluated ``_BLOCK`` at a time.  Returns the array of
    integrals.
    """
    counts = np.maximum(np.ceil(upper / _START_SPAN), _MIN_PANELS).astype(int)
    owner = np.repeat(np.arange(upper.size), counts)
    width = upper[owner] / counts[owner]
    left = (np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)) * width
    totals = np.zeros(upper.size)
    for _ in range(_MAX_ROUNDS):
        half = width / 2.0
        sums = np.empty((owner.size, 2))
        for b in range(0, owner.size, _BLOCK):
            block = slice(b, b + _BLOCK)
            y = (left[block] + half[block])[:, None] + half[block, None] * _PANEL_NODES
            sums[block] = np.einsum("ij,jk->ik", fn(owner[block, None], y), _PANEL_WEIGHTS)
        fine, coarse = half * sums.T
        err = np.abs(fine - coarse)
        ok = err <= tol[owner] * np.maximum(width / upper[owner], 1e-3)
        totals += np.bincount(owner[ok], fine[ok], minlength=upper.size)
        if ok.all():
            return totals
        bad = ~ok
        owner, width = np.tile(owner[bad], 2), np.tile(half[bad], 2)
        left = np.concatenate([left[bad], left[bad] + half[bad]])
    raise QuadratureError(
        f"adaptive quadrature stalled on {np.unique(owner).size} of {upper.size} intervals",
        achieved_error=float(err[bad].max()),
    )


def _power_map(alpha):
    # grading exponent of the level nodes; the cap keeps 4 alpha finite
    return math.ceil(4.0 * min(max(alpha, 1.0), 1e300))


def _newton(coeffs, x):
    """The 6-point polynomial in Newton's forward-difference form: ``coeffs``
    are the differences of orders 0-5 at the stencil start, ``x`` the
    offset from it in node spacings."""
    acc = coeffs[-1]
    for k in range(_STENCIL - 2, -1, -1):
        acc = coeffs[k] + (x - k) / (k + 1) * acc
    return acc


def _interpolate(table, t):
    """The 6-point polynomial through the level's nodes around s = t
    (shifted inward at the ends)."""
    x = t * (_S.size - 1)
    start = np.clip(np.floor(x).astype(int) + 1 - _STENCIL // 2, 0, _S.size - _STENCIL)
    return _newton([d[start] for d in table], x - start)


def _build_level(alpha, n, lower):
    """Difference table of g_n at the nodes from that of g_{n-1} (``None``
    for g_1 = 1), by one batched quadrature over the cells between nodes
    and one backward pass over them.

    Substituting v = w^(a_{n-1} + 1) and then v = e^(-y) turns
    ``(a+1) * integral of w^a g_{n-1}(w^(-alpha^(n-1)) z) dw`` into
    ``integral over y in [0, e |log z|] of g_{n-1}(z e^(y/e)) e^(-y)``
    with e = sum_{i<n} alpha^(-i).  At the node z = s**power_map the
    argument of g_{n-1} is the node s e^(y/scale), scale = e power_map,
    so z, which underflows for large alpha, is never formed.  The range
    of node s_i ends where that argument reaches 1, and it passes the
    next node s_{i+1} at y = Y_i = scale log(s_{i+1}/s_i).  Shifting y
    by Y_i past that point gives

        g_n(s_i) = L_i + e^(-Y_i) g_n(s_{i+1}),  g_n(s_2048) = g_n(1) = 0,

    with L_i the integral over the cell y in [0, min(Y_i, 36)]; beyond
    y = 36 the tail is below 2e-16.  In the y variable g_{n-1} varies on
    an O(1) scale for every alpha and level, and within a cell the
    interpolant of g_{n-1} is one polynomial, so one 16-point panel per
    cell rarely refines.  Cell i gets the error target
    1e-10 min(Y_i, 1).  The pass weights the cells after node i by e^(-y)
    at their start, so the targets summed into any node stay below
    (e + 1/(1 - 1/e)) 1e-10 < 5e-10, and the 16- vs 8-point estimate
    they bound overstates the error of the 16-point value by orders.
    """
    scale = _power_map(alpha) * float(_profile_exponents(alpha, n)[-1])  # inf for tiny alpha
    s = _S[1:-1]
    steps = scale * np.log(_S[2:] / s)  # Y_i; inf when scale is

    def integrand(owner, y):
        damp = np.exp(-y)
        if lower is None:
            return damp
        # every point of cell i lies in [s_i, s_(i+1)], so one stencil
        # (that of _interpolate) serves the whole panel
        start = np.clip(owner - 1, 0, _S.size - _STENCIL)
        t = np.minimum(s[owner] * np.exp(y / scale), 1.0)
        x = t * (_S.size - 1) - start
        return np.clip(_newton([d[start] for d in lower], x), 0.0, 1.0) * damp

    cells = _adaptive_panels(
        integrand, np.minimum(steps, _LOG_CUTOFF), 1e-10 * np.minimum(steps, 1.0)
    )
    values = [0.0]  # g_n(1) = 0, then g_n at the nodes from the top down
    for local, decay in zip(cells[::-1].tolist(), np.exp(-steps[::-1]).tolist()):
        values.append(local + decay * values[-1])
    samples = np.clip([1.0, *values[::-1]], 0.0, 1.0)  # g_n(0) = 1
    return [np.diff(samples, k) for k in range(_STENCIL)]


def _level(alpha, n):
    """Difference table of g_n, building missing levels bottom-up; a new
    alpha drops the levels of the one before."""
    if (alpha, n) not in _LEVELS:
        if any(a != alpha for a, _ in _LEVELS):
            _LEVELS.clear()
        lower = None
        for k in range(2, n + 1):
            if (alpha, k) not in _LEVELS:
                _LEVELS[(alpha, k)] = _build_level(alpha, k, lower)
            lower = _LEVELS[(alpha, k)]
    return _LEVELS[(alpha, n)]


def _recursive(spec, z):
    """g_n at each point of the array z in [0, 1] through the integral
    recursion: the 6-point interpolant of the cached level-n samples
    (quadrature target ~1e-10 per node) at s = z**(1/power_map)."""
    values = np.ones(z.shape)  # g_1 = 1 and g_n(0) = 1
    n = spec.n
    if n == 1:
        return values
    values[z == 1.0] = 0.0
    inner = (z > 0.0) & (z < 1.0)
    if inner.any():
        alpha = 1.0 if is_unit(spec.alpha) else spec.alpha
        root = 1.0 / _power_map(alpha)
        t = z[inner] ** root
        values[inner] = np.clip(_interpolate(_level(alpha, n), t), 0.0, 1.0)
    return values


def g_recursive(spec, z):
    """g_n(z) through the integral recursion (see ``_recursive``)."""
    return float(_recursive(spec, _unit_interval([z], "g argument z"))[0])


def g_value(spec, z):
    """g_n at z in [0, 1], a float or an array: the closed form where it is
    accepted, the recursion for the rejected points in one batch.  A 0-d
    z gives a float.  A recursion value is accurate in absolute terms
    only (~1e-10), so a tiny g_n from it has no correct relative digits."""
    z = _unit_interval(z, "g argument z")
    points = np.atleast_1d(z)
    values, ok = _closed(spec, points)
    if not ok.all():
        values[~ok] = _recursive(spec, points[~ok])
    return values if z.ndim else float(values[0])


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


def kernel_K(spec, x, y):
    """Iterated kernel K_n(x, y) at x in [0, 1], a float or an array, for one
    y in [0, 1]; zero outside y <= x^(alpha^n).  A 0-d x gives a float.
    Where g_n comes from the recursion (see ``g_value``) the value is
    accurate only in absolute terms, relative to b_n x^(a_n)."""
    given = _unit_interval(x, "kernel argument x")
    x = np.atleast_1d(given)
    y = float(_unit_interval(y, "kernel argument y"))
    alpha, n = spec.alpha, spec.n
    values = np.zeros(x.shape)
    if y == 0.0 and spec.a_n == 0.0:
        # at x = 0 the indicator forces y = 0; 0^0 := 1 covers the n = 1 base case
        values[x == 0.0] = spec.b_n
    # logs of x^(alpha^n) and x^(a_n); they stay 0 at x = 1, which guards
    # inf * 0 with extreme orders
    interior = (x > 0.0) & (x < 1.0)
    lx = np.log(x[interior])
    a_pow_n = math.inf if n * math.log(alpha) > 709.0 else alpha**n
    log_support = np.zeros(x.shape)
    log_support[interior] = a_pow_n * lx
    log_pref = np.zeros(x.shape)
    log_pref[interior] = spec.a_n * lx
    ly = math.log(y) if y > 0.0 else -math.inf
    inside = (x > 0.0) & (ly <= log_support)
    if y > 0.0:
        z = np.exp(ly - log_support[inside])
    else:
        z = np.zeros(np.count_nonzero(inside))
    g = g_value(spec, np.minimum(z, 1.0))
    log_pref = spec.log_b_n + log_pref[inside]
    pref = np.exp(log_pref)
    pref[log_pref < -745.0] = 0.0
    values[inside] = pref * np.maximum(g, 0.0)
    return values if given.ndim else float(values[0])


def kernel_lower_bound(spec, z):
    """Profile lower bound (1 - z^(1/((n-1) alpha)))^(n-1), n >= 2, at z in
    [0, 1], a float or an array; a 0-d z gives a float."""
    if spec.n < 2:
        raise DomainError("the profile lower bound needs n >= 2")
    given = _unit_interval(z, "profile bound argument z")
    expo = 1.0 / ((spec.n - 1) * spec.alpha)
    values = (1.0 - np.atleast_1d(given) ** expo) ** (spec.n - 1)
    return values if given.ndim else float(values[0])
