"""Norm bounds: the (p, q) sandwich, Holder continuity in alpha, and
upper/lower bounds for iterate norms with their growth trends.

All bound arithmetic runs in log space: the coefficient b_n spans
hundreds of orders of magnitude by n = 40 once alpha > 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _integer, _real
from .kernels import make_kernel_spec, make_kernel_specs
from .special import _exp_in_range, is_unit, log_gamma

_TIE_TOLERANCE = 1e-10
# above this alpha the Beta bound's log Gamma(alpha + 1) - log Gamma(alpha + a)
# comes from Stirling's series: the difference of two lgamma values cancels
# (1.1e-9 relative at alpha = 1e6, 17% at 1e14), and lgamma overflows past 2.5e305
_STIRLING_ALPHA = 100.0


@dataclass(frozen=True)
class NormSandwich:
    """Lower/upper bounds for the (p, q) operator norm at one alpha."""

    lower: float
    upper_holder: float
    upper_beta: float

    @property
    def upper(self):
        return min(self.upper_holder, self.upper_beta)


def norm_sandwich(alpha, ctx):
    """Bound sandwich: (alpha q + 1)^(-1/q) below, the smaller of the
    Holder bound (alpha q/p' + 1)^(-1/q) and the Beta bound
    [alpha B(p'/q + 1, alpha)]^(1/p') above."""
    _real(alpha, 0.0, math.inf, "alpha")
    p_conj, q = ctx.p_conj, ctx.q
    if alpha * q < math.inf:
        lower = (alpha * q + 1.0) ** (-1.0 / q)
        upper_holder = (alpha * q / p_conj + 1.0) ** (-1.0 / q)
    else:  # the + 1 is below an ulp of alpha q, which overflows
        log_alpha_q = math.log(alpha) + math.log(q)
        lower = math.exp(-log_alpha_q / q)
        upper_holder = math.exp(-(log_alpha_q - math.log(p_conj)) / q)
    a = p_conj / q + 1.0
    # alpha * B(a, alpha) = exp(lgamma(a) + lgamma(alpha + 1) - lgamma(a + alpha))
    if alpha <= _STIRLING_ALPHA:
        log_beta_term = log_gamma(a) + log_gamma(alpha + 1.0) - log_gamma(a + alpha)
    else:
        log_ratio = _stirling_tail(alpha, 1.0) - _stirling_tail(alpha, a)
        log_beta_term = log_gamma(a) + (1.0 - a) * math.log(alpha) + log_ratio
    upper_beta = math.exp(log_beta_term / p_conj)
    return NormSandwich(lower, upper_holder, upper_beta)


def _stirling_tail(alpha, c):
    """log Gamma(alpha + c) - (alpha + c - 1/2) log alpha + alpha - log(2 pi)/2
    for alpha > 100, from Stirling's series with log(alpha + c) split as
    log alpha + log1p(c / alpha), so no large term is formed.  The series
    stops at u^5, u = 1/(alpha + c); the next term is below 1e-17."""
    u = 1.0 / (alpha + c)
    series = u * (1.0 / 12.0 - u * u * (1.0 / 360.0 - u * u / 1260.0))
    return (alpha + c - 0.5) * math.log1p(c / alpha) - c + series


def holder_modulus(alpha, beta_, ctx):
    """Holder-in-alpha modulus |alpha - beta|^(1/p') Gamma(q/p' + 1)^(1/q)."""
    if not (0.0 <= alpha < math.inf and 0.0 <= beta_ < math.inf):
        raise DomainError(f"exponents must be finite and nonnegative, got ({alpha}, {beta_})")
    gap = abs(alpha - beta_)
    log_gamma_factor = log_gamma(ctx.q / ctx.p_conj + 1.0) / ctx.q
    value = gap ** (1.0 / ctx.p_conj) * math.exp(log_gamma_factor)
    if value < math.inf:
        return value
    raise DomainError(f"holder_modulus({alpha}, {beta_}) exceeds the float range")


def preferred_upper_bound(ctx):
    """Which upper bound of the sandwich is smaller: 'holder' when
    q >= p', 'beta' when q <= p', 'equal' at q = p'."""
    q, p_conj = ctx.q, ctx.p_conj
    if abs(q - p_conj) <= _TIE_TOLERANCE * max(q, p_conj):
        return "equal"
    return "holder" if q > p_conj else "beta"


def _log_weight_term(spec, p, c):
    """log(p a_n + c alpha^n + 1), with c = 1 (upper) or p (lower), stable
    when alpha^n overflows, and when a product with a huge p does: there
    p is taken out, log p + log(a_n + (c/p) alpha^n + 1/p)."""
    alpha, a_n = spec.alpha, spec.a_n
    n_log_a = 0.0 if is_unit(alpha) else spec.n * math.log(alpha)  # a_n = n - 1 at alpha = 1
    if n_log_a < 700.0:
        a_pow_n = math.exp(n_log_a)
        weight = p * a_n + c * a_pow_n + 1.0
        if weight < math.inf:
            return math.log(weight)
        return math.log(p) + math.log(a_n + c / p * a_pow_n + 1.0 / p)
    # a_n ~ alpha^n/(alpha - 1); the +1 is exponentially negligible
    weight = p / (alpha - 1.0) + c
    if weight < math.inf:
        return n_log_a + math.log(weight)
    return n_log_a + math.log(p) + math.log(1.0 / (alpha - 1.0) + c / p)


def _log_upper(spec, p):
    return spec.log_b_n - _log_weight_term(spec, p, 1.0) / p


def _log_lower(spec, p):
    m = (spec.n - 1) * spec.alpha
    return (
        math.log(m)
        + spec.log_b_n
        + log_gamma(m)
        + log_gamma(spec.n)
        - log_gamma(m + spec.n)
        - _log_weight_term(spec, p, p) / p
    )


def log_iterate_norm_upper(alpha, n, p):
    """log of b_n (p a_n + alpha^n + 1)^(-1/p)."""
    _real(p, 1.0, math.inf, "p")
    n = _integer(n, 1, "iterate order")
    return _log_upper(make_kernel_spec(alpha, n), p)  # checks alpha


def iterate_norm_upper(alpha, n, p):
    """Upper bound b_n (p a_n + alpha^n + 1)^(-1/p) for the n-th iterate norm."""
    log_value = log_iterate_norm_upper(alpha, n, p)
    return _exp_in_range(log_value, f"log_iterate_norm_upper({alpha}, {n}, {p})")


def log_iterate_norm_lower(alpha, n, p):
    """log of the test-function lower bound
    (n-1) alpha b_n Gamma((n-1)alpha) Gamma(n) / Gamma((n-1)alpha + n)
    / (a_n p + alpha^n p + 1)^(1/p), valid for n >= 2."""
    n = _integer(n, 2, "the lower bound's iterate order")
    _real(p, 1.0, math.inf, "p")
    return _log_lower(make_kernel_spec(alpha, n), p)  # checks alpha


def iterate_norm_lower(alpha, n, p):
    """Lower bound for the n-th iterate norm; see log_iterate_norm_lower."""
    log_value = log_iterate_norm_lower(alpha, n, p)
    return _exp_in_range(log_value, f"log_iterate_norm_lower({alpha}, {n}, {p})")


@dataclass(frozen=True)
class TrendReport:
    """Normalized growth bracket of log iterate norms at one alpha.

    ``regime`` is 'sub' (alpha < 1, normalization 1/n, target log(1-alpha)),
    'unit' (alpha = 1, normalization 1/(n log n), target -1) or 'super'
    (alpha > 1, normalization 1/n^2, target -log(alpha)/2); ``scale`` holds
    that normalizer for each n in ``ns``.  The lower end of the bracket
    for alpha < 1 uses the spectral-radius anchor ||T^n|| >= (1-alpha)^n,
    which holds for every n.
    """

    regime: str
    target: float
    lower_end: float
    upper_end: float
    ns: np.ndarray
    log_lower: np.ndarray
    log_upper: np.ndarray
    scale: np.ndarray

    @property
    def midpoint(self):
        return 0.5 * (self.lower_end + self.upper_end)

    @property
    def contains_target(self):
        lo, hi = sorted((self.lower_end, self.upper_end))
        return lo - 1e-12 <= self.target <= hi + 1e-12


def growth_trend(alpha, p, n_max):
    """Bracket [log lower, log upper] for n <= n_max, normalized per regime."""
    n_max = _integer(n_max, 10, "n_max")
    _real(p, 1.0, math.inf, "p")
    specs = make_kernel_specs(alpha, n_max)[1:]  # checks alpha, and n_max against its cap
    ns = np.arange(2, n_max + 1)
    log_upper = np.array([_log_upper(spec, p) for spec in specs])
    log_lower = np.array([_log_lower(spec, p) for spec in specs])
    if is_unit(alpha):
        regime, target = "unit", -1.0
        scale = ns * np.log(ns)
    elif alpha < 1.0:
        regime, target = "sub", math.log1p(-alpha)
        # spectral radius anchor: ||T^n|| >= (1 - alpha)^n for every n
        log_lower = np.maximum(log_lower, ns * math.log1p(-alpha))
        scale = ns.astype(float)
    else:
        regime, target = "super", -0.5 * math.log(alpha)
        scale = ns.astype(float) ** 2
    return TrendReport(
        regime=regime,
        target=target,
        lower_end=float(log_lower[-1] / scale[-1]),
        upper_end=float(log_upper[-1] / scale[-1]),
        ns=ns,
        log_lower=log_lower,
        log_upper=log_upper,
        scale=scale,
    )
