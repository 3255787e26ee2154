"""Singular-value machinery for the p = q = 2 case.

The squared singular values of the family member with exponent alpha are
``alpha / ((1+alpha)^2 h_n)`` where h_0 < h_1 < ... are the positive zeros
of the entire function

    H_alpha(z) = sum_k (-z)^k / (k! prod_{j=1..k} (j - 1/(1+alpha)))

and the corresponding eigenfunctions of the Gram operator are
``H_alpha(h_n * x^((1+alpha)/alpha))``.  At alpha = 1 the series collapses
to cos(2 sqrt(z)), which anchors the whole module against the classical
Volterra operator; alpha = +inf is accepted as a parameter and gives the
series with plain (k!)^2 denominators.

Series are summed termwise in double-double arithmetic so that even the
badly cancelling regime z ~ 100 (terms of size 1e7) comes out to ~1e-15
absolute.  With eps = 1/(1+alpha), H_alpha(z) = Gamma(1-eps) z^(eps/2)
J_{-eps}(2 sqrt(z)), so the zeros are Bessel zeros: each one gets a
certified bracket from the zeros before it, and safeguarded Newton steps
polish it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .compensated import dd_div_dd, dd_mul_d, fsum_pairs, two_prod, two_sum
from .errors import ConvergenceError, DomainError, IterationLimitError, SearchHorizonError
from .errors import _integer, _real, _unit_interval
from .transform import apply_T, apply_T_adjoint, lp_norm, midpoints

_TAIL_TARGET = 1e-15
_MAX_TERMS = 10_000
_BLOCK = 512  # points per vectorised series pass; bounds its term table
_DIAGNOSTIC_FLOOR = 1e-7  # smallest alpha small_alpha_diagnostic resolves


def _c_eps(alpha):
    """(c, eps) = (alpha/(1+alpha), 1/(1+alpha)), each formed directly:
    1 - eps from a rounded eps would carry a relative error ~u/alpha."""
    if alpha == math.inf:
        return 1.0, 0.0
    if not alpha > 0:
        raise DomainError(f"alpha must be positive or inf, got {alpha}")
    return alpha / (1.0 + alpha), 1.0 / (1.0 + alpha)


def _term(hi, lo, z, k, shift, c):
    """Term k+1 of the series from term k = (hi, lo), and the bound r on
    the ratios of the terms after it.  The recursion multiplies by -z and
    divides by the exact double-double product (k+1)(k + shift + c), so
    each term is accurate to O(u^2) relative.  Every operation is an IEEE
    + - * /, so z, hi and lo may be floats or arrays of one shape."""
    d1 = float(k + 1)
    d2_hi, d2_lo = two_sum(k + shift, c)
    den_hi, den_lo = two_prod(d1, d2_hi)
    den_lo += d1 * d2_lo
    hi, lo = dd_mul_d(hi, lo, -z)
    hi, lo = dd_div_dd(hi, lo, den_hi, den_lo)
    return hi, lo, abs(z) / ((k + 2) * (k + 1 + shift + c))


def _series_sum(c, z, derivative=False):
    """Double-double sum of the entire series or its termwise derivative.

    c = 1 - eps.  math.fsum adds all (hi, lo) parts of the terms exactly.
    Returns ``(value, K, tail)``: the sum, the index K of the last term
    kept, and the bound |t_K| r/(1-r) on the dropped tail, with
    r = |t_{K+1} / t_K| < 1/2; later term ratios are smaller still.
    """
    if derivative:
        hi, lo = dd_div_dd(-1.0, 0.0, c, 0.0)
        shift = 1.0  # denominator of step k is (k+1)(k+1+c)
    else:
        hi, lo = 1.0, 0.0
        shift = 0.0
    pairs = [(hi, lo)]
    for k in range(_MAX_TERMS):
        hi, lo, ratio = _term(hi, lo, z, k, shift, c)
        if not math.isfinite(hi):
            raise ConvergenceError(f"series at z={z} is not finite at term {k + 1}")
        pairs.append((hi, lo))
        if abs(hi) < _TAIL_TARGET and ratio < 0.5:
            return fsum_pairs(pairs), k + 1, abs(hi) * ratio / (1.0 - ratio)
    raise ConvergenceError(f"series at z={z} did not converge in {_MAX_TERMS} terms")


def _series_block(c, z):
    """The sums of ``_series_sum(c, z_i)`` for a 1-d array z, bit for bit.

    All points step through ``_term`` together.  A point stops by its own
    rule, and its later terms are zeroed; each sum is then math.fsum over
    that point's own (hi, lo) parts, one row at a time.
    """
    hi, lo = np.ones_like(z), np.zeros_like(z)
    parts = [hi, lo]
    live = np.ones(z.shape, dtype=bool)
    # as in the scalar path, an overflow or inf - inf gives a non-finite
    # term that raises below, with no numpy warning on stderr
    with np.errstate(all="ignore"):
        for k in range(_MAX_TERMS):
            hi, lo, ratio = _term(hi, lo, z, k, 0.0, c)
            bad = live & ~np.isfinite(hi)
            if bad.any():
                raise ConvergenceError(
                    f"series at z={z[bad][0]} is not finite at term {k + 1}"
                )
            parts += [np.where(live, hi, 0.0), np.where(live, lo, 0.0)]
            live &= ~((np.abs(hi) < _TAIL_TARGET) & (ratio < 0.5))
            if not live.any():
                return [math.fsum(row.tolist()) for row in np.stack(parts, axis=1)]
    raise ConvergenceError(
        f"series at z={z[live][0]} did not converge in {_MAX_TERMS} terms"
    )


def eval_H(alpha, z):
    """The entire function whose positive zeros give the Gram spectrum.

    ``alpha = math.inf`` selects the limiting series sum (-z)^k/(k!)^2.
    At alpha = 1 this is cos(2 sqrt(z)) to ~1e-13 for z up to 100.
    """
    return _series_sum(_c_eps(alpha)[0], z)[0]


def eval_H_derivative(alpha, z):
    """d/dz of eval_H, by termwise differentiation with the same tail policy."""
    return _series_sum(_c_eps(alpha)[0], z, derivative=True)[0]


# widening of each bracket after the first, in x = 2 sqrt(z): at alpha = 1
# the gaps are exactly pi and the unwidened bracket is a point
_MARGIN = math.pi / 16.0
_NOISE_CEILING = 1e-8


def _refine_zero(alpha, za, zb, fa):
    """Polish a bracketed sign change by bisection plus guarded Newton; the
    last Newton step is taken when it stays inside the bracket."""
    z = 0.5 * (za + zb)
    for _ in range(200):
        f = eval_H(alpha, z)
        df = eval_H_derivative(alpha, z)
        step = z - f / df if df != 0 else math.nan
        if abs(f) <= 1e-12 * max(1.0, abs(df) * z) or (zb - za) <= 4e-16 * zb:
            return step if za <= step <= zb else z
        if (f > 0) == (fa > 0):
            za, fa = z, f
        else:
            zb = z
        if not (za < step < zb):
            step = 0.5 * (za + zb)  # Newton left the bracket: bisect
        z = step
    raise IterationLimitError("zero refinement stalled", estimate=z)


def _bracket(alpha, c, xs):
    """z-interval holding the next zero, given the zeros xs found so far in
    x = 2 sqrt(z), where H is a multiple of x^eps J_{-eps}(x).

    Zero 0 lies in (c, 2c]: below c the series alternates with decreasing
    terms, so H >= 1 - z/c > 0, while H(2c) <= -1 + 2c/(1+c) < 0, and the
    next zero lies above z = 3.6.  After it, Sturm comparison on
    u = sqrt(x) J_{-eps}(x) spaces the zeros monotonically toward pi:
    the gaps d_k shrink for alpha <= 1 and grow for alpha > 1, where u
    also vanishes at x = 0 (Watson, ch. 15).
    """
    if not xs:
        return c, 2.0 * c
    x = xs[-1]
    d = x - xs[-2] if len(xs) > 1 else x
    if alpha > 1.0:
        lo, hi = x + d, x + math.pi
    elif len(xs) > 1:
        lo, hi = x + math.pi, x + d
    else:
        lo, hi = x + math.pi, 1.5 * math.pi
    return (0.5 * (lo - _MARGIN)) ** 2, (0.5 * (hi + _MARGIN)) ** 2


# alpha -> its zeros found so far, in order; each call resumes the walk
_ZEROS = {}


def find_zeros(alpha, count):
    """First ``count`` positive zeros of eval_H, strictly increasing.

    Each zero is refined inside its own certified bracket (``_bracket``),
    which needs only the two zeros before it, so the walk resumes from
    the zeros kept for this alpha and every zero is found once.  As
    H(0) = 1, the ends of bracket k must have the signs (-1)^k and
    (-1)^(k+1), and 2^-106 c H(-z), which bounds the rounding noise of the
    series at the upper end, must stay below 1e-8.  Otherwise this raises
    ``SearchHorizonError`` carrying the zeros found so far; at alpha = 1
    that happens at zero 18.
    """
    count = _integer(count, 1, "zero count")
    c, _ = _c_eps(alpha)
    zeros = _ZEROS.setdefault(alpha, [])
    for k in range(len(zeros), count):
        za, zb = _bracket(alpha, c, [2.0 * math.sqrt(h) for h in zeros[-2:]])
        fa, fb = eval_H(alpha, za), eval_H(alpha, zb)
        noise = 2.0**-106 * c * eval_H(alpha, -zb)  # -z makes every term positive
        sign = (-1.0) ** k
        if not sign * fa > 0.0 > sign * fb or noise > _NOISE_CEILING:
            raise SearchHorizonError(
                f"bracket [{za:.6g}, {zb:.6g}] of zero {k} fails: end values {fa:.3g}, "
                f"{fb:.3g} (signs {sign:+g}, {-sign:+g} required), series noise "
                f"{noise:.3g} (at most {_NOISE_CEILING:g} allowed)",
                partial=list(zeros),
            )
        zeros.append(_refine_zero(alpha, za, zb, fa))
    return zeros[:count]


@dataclass(frozen=True)
class TruncatedSeries:
    """The series eval_H(alpha, argument * x^power_step).  trunc_K and
    tail_bound certify its double-double sum at the largest argument it
    sees, x = 1: the index of the last term kept and the dropped tail.

    A call evaluates every point of x at once, ``_BLOCK`` points per
    numpy pass, and raises DomainError for a point outside [0, 1]
    before any power is taken.  Each value is bit-identical to the scalar
    ``eval_H(alpha, argument * v**power_step)``: the arguments use the
    same scalar power per point, and the series runs the same IEEE
    operations elementwise (``_series_block``).
    """

    alpha: float
    argument: float
    power_step: float
    trunc_K: int
    tail_bound: float

    def __call__(self, x):
        arr = _unit_interval(x, "eigenfunction argument x")
        # the scalar power per point: numpy's array ** can differ by an ulp
        z = np.array([self.argument * v**self.power_step for v in arr.ravel()])
        c, _ = _c_eps(self.alpha)
        out = np.empty(z.size)
        for b in range(0, z.size, _BLOCK):
            out[b : b + _BLOCK] = _series_block(c, z[b : b + _BLOCK])
        return out.reshape(arr.shape) if arr.ndim else float(out[0])


@dataclass(frozen=True)
class GramEigenpair:
    """One eigenpair of the Gram operator (adjoint composed with forward)."""

    index: int
    zero_h: float
    eigenvalue: float
    eigenfunction: TruncatedSeries


def gram_eigenpair(alpha, n):
    """n-th Gram eigenpair: eigenvalue c eps / h_n = alpha/((1+alpha)^2 h_n)
    and the series eigenfunction, which vanishes at x = 1 by construction."""
    _real(alpha, 0.0, math.inf, "alpha")
    n = _integer(n, 0, "eigenpair index")
    h = find_zeros(alpha, n + 1)[n]
    c, eps = _c_eps(alpha)
    _, trunc_k, tail = _series_sum(c, h)
    fn = TruncatedSeries(
        alpha=alpha,
        argument=h,
        power_step=(1.0 + alpha) / alpha,
        trunc_K=trunc_k,
        tail_bound=tail,
    )
    return GramEigenpair(index=n, zero_h=h, eigenvalue=c * eps / h, eigenfunction=fn)


def operator_residual(pair, n_points):
    """Relative residual ||T*T f - lambda f||_2 / ||f||_2 of a Gram
    eigenpair, with f its eigenfunction sampled on the n_points-point
    midpoint grid."""
    alpha = pair.eigenfunction.alpha
    f = pair.eigenfunction(midpoints(n_points))
    tt = apply_T_adjoint(alpha, apply_T(alpha, f))
    return lp_norm(tt - pair.eigenvalue * f, 2) / lp_norm(f, 2)


def norm_22(alpha):
    """Exact L^2 -> L^2 operator norm, sqrt(c eps / h_0) (see ``_c_eps``)."""
    _real(alpha, 0.0, math.inf, "alpha")
    c, eps = _c_eps(alpha)
    return math.sqrt(c * eps / find_zeros(alpha, 1)[0])


def small_alpha_expansion(alpha):
    """First-order norm prediction 1 - (3/4) alpha, valid for alpha <= 0.1."""
    if not 0.0 < alpha <= 0.1:
        raise DomainError(f"expansion window is 0 < alpha <= 0.1, got {alpha}")
    return 1.0 - 0.75 * alpha


def small_alpha_diagnostic(alpha):
    """|norm_22 - (1 - 0.75 alpha)| / alpha^2; bounded as alpha -> 0.

    Both terms round to within an ulp of 1 (1.1e-16), so below
    alpha = 1e-7 that rounding is more than 1% of the alpha^2 term, and
    the diagnostic raises DomainError instead of returning noise.
    """
    if not alpha >= _DIAGNOSTIC_FLOOR:
        raise DomainError(
            f"the diagnostic is rounding-limited below alpha = {_DIAGNOSTIC_FLOOR}, got {alpha}"
        )
    return abs(norm_22(alpha) - small_alpha_expansion(alpha)) / alpha**2


def deformation_gap(eps, z):
    """Distance from the eps-deformed series to its limit, with its bound.

    Returns ``(gap, bound)`` where gap = |H(eps, z) - H(0, z)| in the
    eps = 1/(1+alpha) parameterization and bound = 5 eps e^|z|; the
    inequality gap <= bound holds for eps <= 1/8.
    """
    if not 0.0 < eps <= 0.125:
        raise DomainError(f"the bound is stated for 0 < eps <= 1/8, got {eps}")
    alpha = 1.0 / eps - 1.0
    gap = abs(eval_H(alpha, z) - eval_H(math.inf, z))
    return gap, 5.0 * eps * math.exp(abs(z))
