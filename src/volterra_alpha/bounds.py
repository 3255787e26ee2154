"""Norm bounds: the (p, q) sandwich, Holder continuity in alpha, and
upper/lower bounds for iterate norms with their growth trends.

All bound arithmetic runs in log space: the coefficient b_n spans
hundreds of orders of magnitude by n = 40 once alpha > 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import make_kernel_spec, make_kernel_specs
from .special import UNIT_TOLERANCE, log_gamma
from .transform import LpContext

_TIE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class NormSandwich:
    """Lower/upper bounds for the (p, q) operator norm at one alpha."""

    alpha: float
    ctx: LpContext
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
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    p_conj, q = ctx.p_conj, ctx.q
    lower = (alpha * q + 1.0) ** (-1.0 / q)
    upper_holder = (alpha * q / p_conj + 1.0) ** (-1.0 / q)
    a = p_conj / q + 1.0
    # alpha * B(a, alpha) = exp(lgamma(a) + lgamma(alpha + 1) - lgamma(a + alpha))
    log_beta_term = log_gamma(a) + log_gamma(alpha + 1.0) - log_gamma(a + alpha)
    upper_beta = math.exp(log_beta_term / p_conj)
    return NormSandwich(alpha, ctx, lower, upper_holder, upper_beta)


def holder_modulus(alpha, beta_, ctx):
    """Holder-in-alpha modulus |alpha - beta|^(1/p') Gamma(q/p' + 1)^(1/q)."""
    if alpha < 0 or beta_ < 0:
        raise DomainError("exponents must be nonnegative")
    gap = abs(alpha - beta_)
    return gap ** (1.0 / ctx.p_conj) * math.exp(log_gamma(ctx.q / ctx.p_conj + 1.0) / ctx.q)


def preferred_upper_bound(ctx):
    """Which upper bound of the sandwich is smaller: 'holder' when
    q >= p', 'beta' when q <= p', 'equal' at q = p'."""
    q, p_conj = ctx.q, ctx.p_conj
    if abs(q - p_conj) <= _TIE_TOLERANCE * max(q, p_conj):
        return "equal"
    return "holder" if q > p_conj else "beta"


def _log_weight_term(spec, p, c):
    """log(p a_n + c alpha^n + 1), with c = 1 (upper) or p (lower), stable
    when alpha^n overflows."""
    alpha, n = spec.alpha, spec.n
    if spec.is_unit:
        return math.log(p * (n - 1) + c + 1.0)
    n_log_a = n * math.log(alpha)
    if n_log_a < 700.0:
        return math.log(p * spec.a_n + c * math.exp(n_log_a) + 1.0)
    # a_n ~ alpha^n/(alpha - 1); the +1 is exponentially negligible
    return n_log_a + math.log(p / (alpha - 1.0) + c)


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


def _check_alpha_p(alpha, p):
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 1.0 < p < math.inf:
        raise DomainError(f"p must lie in (1, inf), got {p}")


def log_iterate_norm_upper(alpha, n, p):
    """log of b_n (p a_n + alpha^n + 1)^(-1/p)."""
    _check_alpha_p(alpha, p)
    if n < 1 or int(n) != n:
        raise DomainError(f"iterate order must be a positive integer, got {n}")
    return _log_upper(make_kernel_spec(alpha, int(n)), p)


def iterate_norm_upper(alpha, n, p):
    """Upper bound b_n (p a_n + alpha^n + 1)^(-1/p) for the n-th iterate norm."""
    return math.exp(log_iterate_norm_upper(alpha, n, p))


def log_iterate_norm_lower(alpha, n, p):
    """log of the test-function lower bound
    (n-1) alpha b_n Gamma((n-1)alpha) Gamma(n) / Gamma((n-1)alpha + n)
    / (a_n p + alpha^n p + 1)^(1/p), valid for n >= 2."""
    if n < 2 or int(n) != n:
        raise DomainError(f"the lower bound needs an integer n >= 2, got {n}")
    _check_alpha_p(alpha, p)
    return _log_lower(make_kernel_spec(alpha, int(n)), p)


def iterate_norm_lower(alpha, n, p):
    """Lower bound for the n-th iterate norm; see log_iterate_norm_lower."""
    return math.exp(log_iterate_norm_lower(alpha, n, p))


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

    alpha: float
    p: float
    n_max: int
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
    if n_max < 10:
        raise DomainError(f"n_max must be at least 10, got {n_max}")
    _check_alpha_p(alpha, p)
    ns = np.arange(2, n_max + 1)
    specs = make_kernel_specs(alpha, n_max)[1:]
    log_upper = np.array([_log_upper(spec, p) for spec in specs])
    log_lower = np.array([_log_lower(spec, p) for spec in specs])
    if abs(alpha - 1.0) < UNIT_TOLERANCE:
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
        alpha=alpha,
        p=p,
        n_max=int(n_max),
        regime=regime,
        target=target,
        lower_end=float(log_lower[-1] / scale[-1]),
        upper_end=float(log_upper[-1] / scale[-1]),
        ns=ns,
        log_lower=log_lower,
        log_upper=log_upper,
        scale=scale,
    )
