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
from .transform import GridFunction, apply_T, apply_T_adjoint, lp_norm

_TAIL_TARGET = 1e-15
_MAX_TERMS = 10_000


def _c_eps(alpha):
    """(c, eps) = (alpha/(1+alpha), 1/(1+alpha)), each formed directly:
    1 - eps from a rounded eps would carry a relative error ~u/alpha."""
    if alpha == math.inf:
        return 1.0, 0.0
    if not alpha > 0:
        raise DomainError(f"alpha must be positive or inf, got {alpha}")
    return alpha / (1.0 + alpha), 1.0 / (1.0 + alpha)


def _series_sum(c, z, derivative=False):
    """Double-double sum of the entire series or its termwise derivative.

    The term recursion multiplies by -z and divides by the exact
    double-double product (k+1)(k + c), c = 1 - eps, so each term is
    accurate to O(u^2) relative; math.fsum then adds all (hi, lo) parts
    exactly.  Returns ``(value, K, tail)``: the sum, the index K of the
    last term kept, and the bound |t_K| r/(1-r) on the dropped tail, with
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
        d1 = float(k + 1)
        d2_hi, d2_lo = two_sum(k + shift, c)
        den_hi, den_lo = two_prod(d1, d2_hi)
        den_lo += d1 * d2_lo
        hi, lo = dd_mul_d(hi, lo, -z)
        hi, lo = dd_div_dd(hi, lo, den_hi, den_lo)
        if not math.isfinite(hi):
            raise ConvergenceError(f"series at z={z} is not finite at term {k + 1}")
        pairs.append((hi, lo))
        ratio = abs(z) / ((k + 2) * (k + 1 + shift + c))
        if abs(hi) < _TAIL_TARGET and ratio < 0.5:
            return fsum_pairs(pairs), k + 1, abs(hi) * ratio / (1.0 - ratio)
    raise ConvergenceError(f"series at z={z} did not converge in {_MAX_TERMS} terms")


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
    if count < 1 or int(count) != count:
        raise DomainError(f"count must be a positive integer, got {count}")
    c, _ = _c_eps(alpha)
    zeros = _ZEROS.setdefault(alpha, [])
    for k in range(len(zeros), int(count)):
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
    return zeros[: int(count)]


@dataclass(frozen=True)
class TruncatedSeries:
    """The series eval_H(alpha, argument * x^power_step).  trunc_K and
    tail_bound certify its double-double sum at the largest argument it
    sees, x = 1: the index of the last term kept and the dropped tail."""

    alpha: float
    argument: float
    power_step: float
    trunc_K: int
    tail_bound: float

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array(
            [eval_H(self.alpha, self.argument * v**self.power_step) for v in arr]
        )
        return out if np.ndim(x) else float(out[0])


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
    if not (0.0 < alpha < math.inf):
        raise DomainError(f"Gram eigenpairs need finite positive alpha, got {alpha}")
    if n < 0 or int(n) != n:
        raise DomainError(f"eigenpair index must be a nonnegative integer, got {n}")
    n = int(n)
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


def operator_residual(pair, x):
    """Relative residual ||T*T f - lambda f||_2 / ||f||_2 of a Gram
    eigenpair, with f its eigenfunction sampled on the midpoint grid x."""
    alpha = pair.eigenfunction.alpha
    f = GridFunction(pair.eigenfunction(x))
    tt = apply_T_adjoint(alpha, apply_T(alpha, f))
    resid = GridFunction(tt.values - pair.eigenvalue * f.values, f.weights)
    return lp_norm(resid, 2) / lp_norm(f, 2)


def norm_22(alpha):
    """Exact L^2 -> L^2 operator norm, sqrt(c eps / h_0) (see ``_c_eps``)."""
    if not (0.0 < alpha < math.inf):
        raise DomainError(f"norm_22 needs finite positive alpha, got {alpha}")
    c, eps = _c_eps(alpha)
    return math.sqrt(c * eps / find_zeros(alpha, 1)[0])


def small_alpha_expansion(alpha):
    """First-order norm prediction 1 - (3/4) alpha, valid for alpha <= 0.1."""
    if not 0.0 < alpha <= 0.1:
        raise DomainError(f"expansion window is 0 < alpha <= 0.1, got {alpha}")
    return 1.0 - 0.75 * alpha


def small_alpha_diagnostic(alpha):
    """|norm_22 - (1 - 0.75 alpha)| / alpha^2; bounded as alpha -> 0."""
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
