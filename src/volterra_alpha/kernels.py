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
  and callers fall back to the matrix route.
* ``_recursive`` reads g_n as a law: g_n(z) = P(Y_1 + ... + Y_(n-1) <=
  |log z|) for independent Y_k ~ Exp(e_k), e_k = sum_(i<=k) alpha^(-i),
  the exponents of the series.  That is entry (0, n-1) of exp(Q |log z|)
  for the bidiagonal generator Q of the chain that leaves state k at
  rate e_k, which ``_absorbed`` gives by uniformization with scaling and
  squaring, with the band of every square reset to its closed form (the
  device of Al-Mohy and Higham's expm, SIAM J. Matrix Anal. Appl. 31,
  2009).  Every other operation adds or multiplies nonnegative numbers,
  so g_n keeps ~1e-15 relative accuracy down to the underflow for every
  (alpha, n), with no cache.  A point costs O(n^3.5) for its Taylor step
  and O(n^3) per squaring, and more than ``MAX_RATES`` finite rates raise
  DomainError.

``g_value`` gives g_n at a float or an array of z (the closed form where
it is accepted, the matrix route for the rest in one batch), and
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

from .errors import CancellationError, DomainError
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
            "to cancellation; use g_recursive"
        )
    return float(values[0])


# ---------------------------------------------------------------------------
# the hypoexponential route

# bytes of one chunk's (points, m + 1, m + 1) stack of matrices; the
# Taylor step holds about sqrt(m) such stacks
_STACK_BYTES = 1 << 20
# the most finite rates the matrix route takes, checked before its work:
# a point's Taylor step costs O(m^3.5), ~0.2 s at this order, and
# kernel --alpha 0.995 --n 401 sends 50 points to it and takes ~12 s on a
# 2-vCPU x86-64 box
MAX_RATES = 400


def _band(rates, tau):
    """The diagonal and first superdiagonal of exp(Q tau), one row per step
    in ``tau``, in closed form: e^(-e_k tau), then
    e_k e^(-e_k tau) (-expm1(-d_k tau)) / d_k with d_k = e_(k+1) - e_k
    (the limit e_k e^(-e_k tau) tau where d_k is 0), and last
    -expm1(-e_m tau), the step into the absorbing state."""
    tau = tau[:, None]
    decay = np.exp(-rates * tau)
    gaps = np.diff(rates)
    ratio = np.repeat(tau, gaps.size, axis=1)
    np.divide(-np.expm1(-gaps * tau), gaps, out=ratio, where=gaps != 0.0)
    last = -np.expm1(-rates[-1] * tau)
    return np.concatenate([decay, rates[:-1] * decay[:, :-1] * ratio, last], axis=1)


def _taylor(gen, terms):
    """The Taylor sum of exp over degrees 0..terms for a stack of matrices
    with nonnegative entries, by Paterson and Stockmeyer's scheme: the
    powers up to q = isqrt(terms) once, then Horner's rule in gen^q over
    blocks of q degrees, each scaled by start!/(start + l)! so that no
    coefficient underflows.  About 2 sqrt(terms) products, where Horner's
    rule in gen takes terms."""
    q = math.isqrt(terms)
    powers = [np.eye(gen.shape[-1]), gen]
    for _ in range(q - 1):
        powers.append(powers[-1] @ gen)
    for start in range(terms // q * q, -1, -q):
        coeff = 1.0
        block = np.broadcast_to(powers[0], gen.shape).copy()
        for l in range(1, min(q - 1, terms - start) + 1):
            coeff /= start + l
            block += coeff * powers[l]
        if start + q <= terms:  # the blocks above, as one matrix
            block += (powers[q] @ total) * (coeff / (start + q))
        total = block
    return total


def _absorbed(rates, t):
    """[exp(Q t)]_(0, m) at each t > 0, for the rates e_1 <= ... <= e_m of
    the bidiagonal generator Q (-e_k on the diagonal, e_k above it, and an
    absorbing state m).

    A point with squaring count s = max(0, ceil(log2(2 e_m t))) takes the
    step h = t / 2^s, sums m + 20 Taylor terms of B = h (Q + e_m I), whose
    entries are nonnegative and whose norm is at most 1, multiplies by
    e^(-h e_m) and squares s times.  After the Taylor step and after every
    squaring the band is overwritten by its closed form (``_band``), so the
    error does not grow with the squarings.  Every other operation adds
    or multiplies nonnegative numbers, so each entry keeps its relative
    accuracy.  The points run in chunks of at most ``_STACK_BYTES`` of
    matrices, sorted by their squaring count; the ones with fewer
    squarings drop out of the later rounds.
    """
    m = rates.size
    top = rates[-1]
    squarings = np.maximum(np.ceil(np.log2(2.0 * top * t)), 0.0).astype(int)
    order = np.argsort(-squarings, kind="stable")
    # flat positions of the diagonal and the superdiagonal, as _band orders them
    diag = np.arange(m) * (m + 2)
    band = np.concatenate([diag, diag + 1])
    shift = np.append(top - rates, top)
    out = np.empty(t.size)
    chunk = max(1, _STACK_BYTES // (8 * (m + 1) ** 2))
    for b in range(0, t.size, chunk):
        part = order[b : b + chunk]
        s = squarings[part]
        tau = np.ldexp(t[part], -s)
        gen = np.zeros((part.size, m + 1, m + 1))
        flat = gen.reshape(part.size, -1)
        flat[:, np.append(diag, m * (m + 2))] = tau[:, None] * shift
        flat[:, diag + 1] = tau[:, None] * rates
        power = _taylor(gen, m + 20)
        power *= np.exp(-tau * top)[:, None, None]
        power[:, m, m] = 1.0
        power.reshape(part.size, -1)[:, band] = _band(rates, tau)
        for r in range(1, int(s[0]) + 1):
            active = np.count_nonzero(s >= r)
            power[:active] = power[:active] @ power[:active]
            tau[:active] *= 2.0
            power[:active].reshape(active, -1)[:, band] = _band(rates, tau[:active])
        out[part] = power[:, 0, m]
    return out


def _recursive(spec, z):
    """g_n at each point of the array z in [0, 1] as the law of
    Y_1 + ... + Y_(n-1) <= |log z|, Y_k ~ Exp(e_k) independent: entry
    (0, m) of exp(Q |log z|) (see ``_absorbed``).  A rate past the float
    range (``_profile_exponents``) makes its Y_k vanish and is dropped;
    more than ``MAX_RATES`` finite rates raise DomainError."""
    values = np.ones(z.shape)  # g_1 = 1 and g_n(0) = 1
    n = spec.n
    if n == 1:
        return values
    values[z == 1.0] = 0.0
    inner = (z > 0.0) & (z < 1.0)
    if inner.any():
        alpha = 1.0 if is_unit(spec.alpha) else spec.alpha
        rates = _profile_exponents(alpha, n)[1:]
        rates = rates[np.isfinite(rates)]
        if rates.size > MAX_RATES:
            raise DomainError(
                f"g_{n} at alpha={spec.alpha} has {rates.size} finite rates; "
                f"the matrix route takes at most {MAX_RATES}"
            )
        if rates.size:
            values[inner] = np.minimum(_absorbed(rates, -np.log(z[inner])), 1.0)
    return values


def g_recursive(spec, z):
    """g_n(z) through the matrix exponential of the hypoexponential law
    (see ``_recursive``)."""
    return float(_recursive(spec, _unit_interval([z], "g argument z"))[0])


def g_value(spec, z):
    """g_n at z in [0, 1], a float or an array: the closed form where it is
    accepted, the matrix route for the rejected points in one batch.  A
    0-d z gives a float."""
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
    y in [0, 1]; zero outside y <= x^(alpha^n).  A 0-d x gives a float."""
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
