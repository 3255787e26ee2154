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
* ``g_recursive`` reads g_n from its samples on 2049 graded nodes.  Each
  level is built from the one below by one batched adaptive
  Gauss-Legendre quadrature over all nodes, bottom-up from g_1 = 1, and
  cached per (alpha, level); a local 6-point interpolant joins the
  nodes.  All intermediate quantities are nonnegative, so it is stable
  for every (alpha, n) at an error of ~1e-10 per level.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    """Exponents e_k = sum_{i=1}^{k} alpha^(-i) of the closed-form series.

    A power alpha^(-i) past e^600 is set to inf instead of being formed:
    either way z^(e_k) = 0 for every z < 1, and nothing overflows.
    """
    last = n - 1 if alpha >= 1.0 else min(n - 1, int(600.0 / -math.log(alpha)))
    powers = [[0.0], (1.0 / alpha) ** np.arange(1, last + 1)]
    if last < n - 1:
        powers.append(np.full(n - 1 - last, np.inf))
    return np.cumsum(np.concatenate(powers))


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
    if z == 1.0:
        return 0.0  # g_n(1) = 0 for n >= 2; the sum would cancel to rounding
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
# embedded coarse rule: 8-point Gauss on the same panel
_C8_NODES, _C8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PANEL_NODES = np.concatenate([_GL_NODES, _C8_NODES])
_PANEL_WEIGHTS = np.zeros((24, 2))  # columns: the 16- and the 8-point rule
_PANEL_WEIGHTS[:16, 0], _PANEL_WEIGHTS[16:, 1] = _GL_WEIGHTS, _C8_WEIGHTS
_MIN_PANELS = 16
_BLOCK = 2048  # panels per integrand call, which bounds its temporaries
# level nodes s, mapped to z = s**power_map; 2049 keeps the interpolation
# error around 1e-10, an order below the per-level quadrature target
_S = np.linspace(0.0, 1.0, 2049)
_STENCIL = 6  # points of the local interpolant; 4 stray 150x further from g_closed
_LOG_CUTOFF = 36.0  # exp(-36) ~ 2e-16 bounds the discarded tail
# (alpha, n) -> forward differences of the samples of g_n at the nodes, for
# one alpha at a time: a level holds ~0.43 MB, and sweeps ask alpha by alpha
_LEVELS = {}


def _adaptive_panels(fn, upper, tol, max_rounds=14):
    """Adaptive 16-point Gauss-Legendre over every interval [0, upper_i].

    ``fn(owner, y)`` evaluates, elementwise, the integrand of interval
    ``owner`` at ``y``; it gets one row of points per panel and a column
    of owners.  Each interval starts as ``_MIN_PANELS`` equal panels, and
    a panel whose 16- vs 8-point estimates disagree by more than its share
    of ``tol`` is halved.  The panels of a round are evaluated ``_BLOCK``
    at a time.  Returns the array of integrals.
    """
    owner = np.repeat(np.arange(upper.size), _MIN_PANELS)
    width = upper[owner] / _MIN_PANELS
    left = np.tile(np.arange(_MIN_PANELS), upper.size) * width
    totals = np.zeros(upper.size)
    for depth in range(max_rounds):
        half = width / 2.0
        sums = np.empty((owner.size, 2))
        for b in range(0, owner.size, _BLOCK):
            block = slice(b, b + _BLOCK)
            y = (left[block] + half[block])[:, None] + half[block, None] * _PANEL_NODES
            sums[block] = np.einsum("ij,jk->ik", fn(owner[block, None], y), _PANEL_WEIGHTS)
        fine, coarse = half * sums.T
        err = np.abs(fine - coarse)
        ok = err <= tol * max(0.5**depth / _MIN_PANELS, 1e-3)
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


def _interpolate(table, t):
    """The 6-point polynomial through the level's nodes around s = t
    (shifted inward at the ends), in Newton's forward-difference form."""
    x = t * (_S.size - 1)
    start = np.clip(np.floor(x).astype(int) + 1 - _STENCIL // 2, 0, _S.size - _STENCIL)
    x = x - start
    acc = table[-1][start]
    for k in range(_STENCIL - 2, -1, -1):
        acc = table[k][start] + (x - k) / (k + 1) * acc
    return acc


def _build_level(alpha, n, lower):
    """Difference table of g_n at the nodes from that of g_{n-1} (``None``
    for g_1 = 1), by one batched quadrature over all nodes.

    Substituting v = w^(a_{n-1} + 1) and then v = e^(-y) turns
    ``(a+1) * integral of w^a g_{n-1}(w^(-alpha^(n-1)) z) dw`` into
    ``integral over y in [0, e |log z|] of g_{n-1}(z e^(y/e)) e^(-y)``
    with e = sum_{i<n} alpha^(-i).  In the y variable the profile varies
    on an O(1) scale for every alpha and level, and the tail beyond
    y = 36 is below 2e-16.  At the node z = s**power_map the argument of
    g_{n-1} is the node s e^(y/(e power_map)), so z, which underflows
    for large alpha, is never formed.
    """
    scale = _power_map(alpha) * float(np.sum((1.0 / alpha) ** np.arange(1, n)))
    s = _S[1:-1]

    def integrand(owner, y):
        damp = np.exp(-y)
        if lower is None:
            return damp
        t = np.minimum(s[owner] * np.exp(y / scale), 1.0)
        return np.clip(_interpolate(lower, t), 0.0, 1.0) * damp

    inner = _adaptive_panels(integrand, np.minimum(scale * -np.log(s), _LOG_CUTOFF), 1e-10)
    samples = np.concatenate([[1.0], np.clip(inner, 0.0, 1.0), [0.0]])  # g_n(0) = 1, g_n(1) = 0
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


def g_recursive(spec, z):
    """g_n(z) through the integral recursion: the 6-point interpolant of
    the cached level-n samples (quadrature target ~1e-10 per node) at
    s = z**(1/power_map)."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"g is defined on [0, 1], got z = {z}")
    n = spec.n
    if n == 1 or z == 0.0:
        return 1.0
    if z == 1.0:
        return 0.0
    alpha = 1.0 if spec.is_unit else spec.alpha
    t = z ** (1.0 / _power_map(alpha))
    return float(np.clip(_interpolate(_level(alpha, n), t), 0.0, 1.0))


def g_value(spec, z):
    """g_n(z) by the closed form, falling back to the recursion on cancellation."""
    try:
        return g_closed(spec, z)
    except CancellationError:
        return g_recursive(spec, z)


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
    a_pow_n = math.inf if n * math.log(alpha) > 709.0 else alpha**n
    # log of x^(alpha^n); guard inf * 0 at x = 1 with extreme orders
    log_support = a_pow_n * lx if x < 1.0 else 0.0
    ly = math.log(y) if y > 0.0 else -math.inf
    if ly > log_support:
        return 0.0
    z = math.exp(ly - log_support) if y > 0.0 else 0.0
    g = g_value(spec, min(z, 1.0))
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
