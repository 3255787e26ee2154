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

H is a Bessel function.  With c = alpha/(1+alpha), eps = 1 - c and
x = 2 sqrt(z), H_alpha(z) = Gamma(c) (x/2)^eps J_{-eps}(x), and the order
shift J_{-eps} = (2c/x) J_c - J_{1+c} gives

    H = A - z B / (c (1+c)),    H' = -A / c,

with A = Gamma(1+c) (x/2)^-c J_c(x) = 0F1(; 1+c; -z) and
B = Gamma(2+c) (x/2)^(-1-c) J_{1+c}(x) = 0F1(; 2+c; -z).  A and B are
computed in plain double by one of three routes, chosen from x alone:
Miller's backward recurrence (Gautschi, SIAM Review 9, 1967) for
0 < x < 20, Hankel's expansion (DLMF 10.17) for x >= 20, and the series
itself for z <= 0, where all its terms are positive.  When only a few
points need Miller's recurrence, as in a Newton step, it runs on each as
a numpy scalar, with the bits of the array route.  Against mpmath, H and
H' lie within ~4e-15 of max(1, Gamma(c) (x/2)^eps) for z up to 1e6.
The floor is alpha ~ 5.6e-309, below which 1/c (about Gamma(c))
overflows.  The zeros are Bessel zeros, more than 2.99 apart in x, so
one scan of H brackets each of them, and safeguarded Newton steps polish
them all at once.  One scan serves every eigenpair a caller asks for.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IterationLimitError, SearchHorizonError
from .errors import _integer, _real, _unit_interval
from .transform import apply_T, apply_T_adjoint, lp_norm, midpoints

_DIAGNOSTIC_FLOOR = 1e-7  # smallest alpha small_alpha_diagnostic resolves
# x = 2 sqrt(z) from which Hankel's expansion replaces Miller's recurrence
_SWITCH = 20.0
# orders above c where Miller's recurrence starts: against mpmath, x = 20
# reaches rounding from 50, and each two orders more gain ~25x there
_MILLER_START = 56
# coefficients kept in each of Hankel's sums P and Q, the terms t_0 ... t_27.
# For orders up to 2 and x >= 20 the terms decrease through t_29, and the
# first one dropped, below 1e-17, bounds the remainder (DLMF 10.17(iii))
_HANKEL_LENGTH = 14
# the most zeros one call finds, a cap on outside input: the scan holds
# 2 count + 2 points, and 10^5 zeros take ~0.1 s on a 2-vCPU x86-64 box
MAX_ZEROS = 10**5


def _c_eps(alpha):
    """(c, eps) = (alpha/(1+alpha), 1/(1+alpha)), each formed directly:
    1 - eps from a rounded eps would carry a relative error ~u/alpha.
    DomainError where 1/c overflows, below alpha ~ 5.6e-309."""
    if alpha == math.inf:
        return 1.0, 0.0
    if not alpha > 0:
        raise DomainError(f"alpha must be positive or inf, got {alpha}")
    c = alpha / (1.0 + alpha)
    if math.isinf(1.0 / c):
        raise DomainError(f"1/c = (1+alpha)/alpha overflows at alpha = {alpha}")
    return c, 1.0 / (1.0 + alpha)


def _series(c, z):
    """(H, A) = (0F1(; c; -z), 0F1(; 1+c; -z)) at each z <= 0, summed term
    by term.  Every term is positive, and each point stops when its own
    next term falls below 2^-53 of its sum (or the sum overflows)."""
    s = -z
    out = []
    for base in (c, 1.0 + c):
        term = np.ones_like(s)
        total = np.ones_like(s)
        live = s > 0.0
        k = 0
        while live.any():
            term = term * s / ((k + 1) * (k + base))
            total = total + np.where(live, term, 0.0)
            live &= term > 2.0**-53 * total
            k += 1
        out.append(total)
    return out


@functools.lru_cache(maxsize=4)
def _coefficients(c):
    """The constants of the two routes for z > 0 at one c: Miller's
    weights e_0 ... e_28 (e_0 = 1 is unused) and Hankel's
    coefficients, the rows P_c, Q_c x, P_{1+c}, Q_{1+c} x as polynomials
    in 1/x^2.  Hankel's terms are a_k(nu) / x^k with
    a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (8j)."""
    e, g = [1.0], 1.0
    for k in range(1, _MILLER_START // 2 + 1):
        e.append((c + 2 * k) * g)
        g *= (c + k) / (k + 1)
    k = np.arange(1.0, 2 * _HANKEL_LENGTH)
    nu = np.array([[c], [1.0 + c]])
    a = np.cumprod((4.0 * nu * nu - (2.0 * k - 1.0) ** 2) / (8.0 * k), axis=1)
    a = np.hstack([np.ones((2, 1)), a])
    rows = np.vstack([a[0, 0::2], a[0, 1::2], a[1, 0::2], a[1, 1::2]])
    rows *= (-1.0) ** np.arange(_HANKEL_LENGTH)
    rows.flags.writeable = False
    return tuple(e), rows


# points up to which _miller runs each point as a numpy scalar: one scalar
# point costs ~20 us and one array call ~170 us, of ~240 numpy calls
_SCALAR_POINTS = 8


def _miller(c, z):
    """(H, A) at each 0 < z < (_SWITCH/2)^2, from the ratios
    rho_n = (2/x) J_{c+n}(x) / J_{c+n-1}(x), run down from rho = 0 past
    order c + _MILLER_START as w_n = z rho_n = z / q_n, q_n = c + n - w_{n+1}.

    The Neumann series (x/2)^c = sum_k (c+2k) Gamma(c+k)/k! J_{c+2k}(x)
    normalises them: 1/A = 1 + sum_{k>=1} e_k z^k rho_1 ... rho_2k with
    e_k = (c+2k) (1+c)_{k-1} / k!, whose Horner form S_1 is summed on the
    way down.  A, B = (1+c) rho_1 A and H are then ratios over one
    denominator, each scaled by q_2 so that no step divides by q_2: at a
    zero of J_{1+c}, q_2 vanishes, and for a tiny c the zeros of H lie
    there.  H's numerator is formed as ((c - z)/c + c) q_2 - z: near the
    first zero of a tiny c, z ~ c and H ~ c/2 is far below the rounding of
    1 - z/c.

    The recurrence takes only + - * /, so it runs on the whole array or,
    for at most ``_SCALAR_POINTS`` points, on each point as a numpy scalar,
    with the same bits and under the caller's ``np.errstate`` either way.
    """
    if z.ndim and z.size <= _SCALAR_POINTS:
        return np.array([_miller(c, v) for v in z]).T
    e = _coefficients(c)[0]
    w = 0.0 * z
    s = e[_MILLER_START // 2] + w
    for n in range(_MILLER_START, 2, -1):
        q = (c + n) - w
        if n % 2:
            s = e[n // 2] + w * s / q
        w = z / q
    q = (2.0 + c) - w
    a_num = (1.0 + c) * q - z
    denom = a_num + z * s
    return (((c - z) / c + c) * q - z) / denom, a_num / denom


def _hankel(c, z):
    """(H, A) at each z with x = 2 sqrt(z) >= _SWITCH, with A and B from
    J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - (nu/2 + 1/4) pi,
    for nu = c and 1 + c, whose phase is w - pi/2.  P and Q are
    polynomials in 1/x^2, evaluated by Horner's rule."""
    x = 2.0 * np.sqrt(z)
    y = 1.0 / x
    y2 = y * y
    rows = _coefficients(c)[1]
    acc = np.zeros((4, z.size))
    for j in range(_HANKEL_LENGTH - 1, -1, -1):
        acc *= y2
        acc += rows[:, j : j + 1]
    p0, q0, p1, q1 = acc
    phase = x - (0.5 * c + 0.25) * math.pi
    cos, sin = np.cos(phase), np.sin(phase)
    scale = (0.5 * x) ** -(c + 0.5) / math.sqrt(math.pi)
    a = math.gamma(1.0 + c) * scale * (p0 * cos - q0 * y * sin)
    b = math.gamma(2.0 + c) * scale * (2.0 * y) * (p1 * sin + q1 * y * cos)
    return a - z * b / (1.0 + c) / c, a


def _h_and_slope(c, z):
    """H_alpha and H'_alpha at each point of the 1-d float array z, where
    c = alpha/(1+alpha).  Each point's route and every operation on it
    depend on that point alone, so a point gives the same bits in any
    array.  DomainError names the first point where either value
    overflows."""
    # each point's route from its own z: series, Miller (x < _SWITCH), Hankel
    route = (z > 0.0).astype(np.int8) + (z >= (0.5 * _SWITCH) ** 2)
    h, a = np.empty_like(z), np.empty_like(z)
    with np.errstate(all="ignore"):
        for r, evaluate in enumerate((_series, _miller, _hankel)):
            where = route == r
            if where.any():
                h[where], a[where] = evaluate(c, z[where])
        slope = -a / c
    bad = ~(np.isfinite(h) & np.isfinite(slope))
    if bad.any():
        raise DomainError(f"H_alpha or its derivative at z = {z[bad][0]} exceeds the float range")
    return h, slope


def _at(alpha, z):
    """(H_alpha(z), H'_alpha(z)) at one finite z, through the array core."""
    z = _real(z, -math.inf, math.inf, "z")
    h, slope = _h_and_slope(_c_eps(alpha)[0], np.array([z]))
    return float(h[0]), float(slope[0])


def eval_H(alpha, z):
    """The entire function whose positive zeros give the Gram spectrum.

    ``alpha = math.inf`` selects the limiting series sum (-z)^k/(k!)^2.
    Computed from Bessel functions (see the module docstring): within
    ~4e-15 of max(1, Gamma(c) (x/2)^eps) against mpmath for
    -50 <= z <= 1e6.  DomainError for a z that is not finite, an alpha
    below ~5.6e-309, or a value beyond the float range.
    """
    return _at(alpha, z)[0]


def eval_H_derivative(alpha, z):
    """d/dz of eval_H, -0F1(; 1+c; -z) / c, by the same routes."""
    return _at(alpha, z)[1]


# below pi / sqrt(1 + 1/pi^2) = 2.9936, the least gap between two zeros in
# x = 2 sqrt(z) (see find_zeros)
_MIN_GAP = 2.99


def _refine(c, za, zb, fa):
    """Polish every bracketed sign change (za, zb] at once by guarded Newton
    plus bisection from its midpoint in x = 2 sqrt(z), each bracket by its
    own steps alone; the last Newton step is kept if it stays inside."""
    z = (0.5 * (np.sqrt(za) + np.sqrt(zb))) ** 2
    out = np.empty_like(z)
    live = np.arange(z.size)
    for _ in range(200):
        f, df = _h_and_slope(c, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(df != 0.0, z - f / df, math.nan)
        done = (np.abs(f) <= 1e-12 * np.maximum(1.0, np.abs(df) * z)) | (zb - za <= 4e-16 * zb)
        out[live[done]] = np.where((za <= step) & (step <= zb), step, z)[done]
        if done.all():
            return out
        keep = ~done
        live, z, f, step, za, zb, fa = (v[keep] for v in (live, z, f, step, za, zb, fa))
        same = (f > 0.0) == (fa > 0.0)
        za, fa, zb = np.where(same, z, za), np.where(same, f, fa), np.where(same, zb, z)
        z = np.where((za < step) & (step < zb), step, 0.5 * (za + zb))
    raise IterationLimitError("zero refinement stalled", estimate=z[0])


def find_zeros(alpha, count):
    """First ``count`` positive zeros of eval_H, strictly increasing.

    In x = 2 sqrt(z), H is a multiple of x^eps J_{-eps}(x).  Zero 0 lies in
    z in (c, 2c]: H >= 1 - z/c > 0 below c, as the series alternates with
    decreasing terms, and H(2c) <= -1 + 2c/(1+c) < 0.  u = sqrt(x) J_{-eps}
    solves u'' + (1 + (1/4 - eps^2)/x^2) u = 0, whose coefficient is at most
    1 for alpha <= 1 and, above x = pi/2 where every zero lies for alpha > 1,
    at most 1 + 1/pi^2; so by Sturm comparison (Watson, ch. 15) no two zeros
    lie within ``_MIN_GAP``.  H is scanned at c, 2c and x0 + k pi/2 with
    x0 = 2 sqrt(2c), k = 1 ... 2 count: each cell holds at most one zero, so
    each sign change brackets one.  The scan ends above zero count - 1, below
    count pi as j_{-eps,n} <= j_{0,n}, and below zero count + 1, above
    j_{1,count+1} > count pi + 3.8: a fault hiding two sign changes leaves
    too few.

    ``SearchHorizonError`` carries the zeros before a fault: H(c) or H(2c) of
    the wrong sign, too few sign changes, or two zeros within ``_MIN_GAP``,
    which only a wrong value of H gives.  ``count`` is at most ``MAX_ZEROS``.
    """
    count = _integer(count, 1, "zero count", most=MAX_ZEROS)
    c, _ = _c_eps(alpha)
    x = 2.0 * math.sqrt(2.0 * c) + 0.5 * math.pi * np.arange(1, 2 * count + 1)
    z = np.concatenate(([c, 2.0 * c], (0.5 * x) ** 2))
    h = _h_and_slope(c, z)[0]
    if not h[0] > 0.0 > h[1]:
        raise SearchHorizonError(f"H(c) = {h[0]:.3g}, H(2c) = {h[1]:.3g} do not bracket zero 0")
    positive = h > 0.0
    cells = np.flatnonzero(positive[:-1] != positive[1:])[:count]
    zeros = _refine(c, z[cells], z[cells + 1], h[cells]).tolist()
    close = np.flatnonzero(np.diff(2.0 * np.sqrt(zeros)) <= _MIN_GAP)
    if close.size:
        k = close[0]
        raise SearchHorizonError(f"zeros {k}, {k + 1} lie within {_MIN_GAP}", partial=zeros[:k])
    if len(zeros) < count:
        message = f"the scan to z = {z[-1]:.6g} holds {len(zeros)} of {count} zeros"
        raise SearchHorizonError(message, partial=zeros)
    return zeros


@dataclass(frozen=True)
class TruncatedSeries:
    """The eigenfunction x -> eval_H(alpha, argument * x^power_step).

    A call evaluates every point of x at once and raises DomainError for
    a point outside [0, 1] before any power is taken.  The powers are
    numpy's, and the evaluator treats each point of an array alone, so a
    point gets the same bits alone, in any array and in any order.
    """

    alpha: float
    argument: float
    power_step: float

    def __call__(self, x):
        arr = _unit_interval(x, "eigenfunction argument x")
        z = self.argument * arr.ravel() ** self.power_step
        out = _h_and_slope(_c_eps(self.alpha)[0], z)[0]
        return out.reshape(arr.shape) if arr.ndim else float(out[0])


@dataclass(frozen=True)
class GramEigenpair:
    """One eigenpair of the Gram operator (adjoint composed with forward)."""

    index: int
    zero_h: float
    eigenvalue: float
    eigenfunction: TruncatedSeries


def _eigenpairs(alpha, count):
    """The first ``count`` Gram eigenpairs, from one scan of H."""
    _real(alpha, 0.0, math.inf, "alpha")
    zeros = find_zeros(alpha, count)
    c, eps = _c_eps(alpha)
    step = (1.0 + alpha) / alpha
    return [
        GramEigenpair(n, h, c * eps / h, TruncatedSeries(alpha, h, step))
        for n, h in enumerate(zeros)
    ]


def gram_eigenpair(alpha, n):
    """n-th Gram eigenpair: eigenvalue c eps / h_n = alpha/((1+alpha)^2 h_n)
    and the eigenfunction H(h_n x^((1+alpha)/alpha)), which vanishes at
    x = 1 by construction."""
    _real(alpha, 0.0, math.inf, "alpha")
    n = _integer(n, 0, "eigenpair index")
    return _eigenpairs(alpha, n + 1)[n]


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
