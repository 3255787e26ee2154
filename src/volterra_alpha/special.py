"""Gamma/Beta evaluation and the q-analogue substrate.

Everything here is a pure scalar function.  The q-products are written so
that bases arbitrarily close to (but distinct from) 1 and large indices
stay accurate: factors ``1 - base**j`` are always formed as
``-expm1(j*log(base))`` and products of many such factors accumulate in
log space.  Bases within ``UNIT_TOLERANCE`` of 1 are routed through the
analytic limit instead of evaluating 0/0 ratios.
"""

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

UNIT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class QParams:
    """Base of the q-analogues (the operator family parameter).

    ``is_unit`` flags bases numerically indistinguishable from 1 so that
    callers route them through analytic limits.
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"q-base must be positive, got {self.alpha}")

    @property
    def is_unit(self):
        return abs(self.alpha - 1.0) < UNIT_TOLERANCE


def _as_base(q):
    """Accept a QParams or a bare positive float."""
    if isinstance(q, QParams):
        return q
    return QParams(float(q))


def log_gamma(x):
    """log of the Gamma function for positive real x: ``math.lgamma``,
    within 1e-15 of mpmath on [1e-6, 1e4] (relative, or absolute where
    the value is below 1)."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(a, b):
    """Euler Beta function B(a, b) for positive arguments."""
    if not (a > 0 and b > 0):
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def _log_one_minus_pow(log_base, j):
    """log |1 - base**j| for j >= 1, stable for base near 1 and for
    exponents far beyond float range."""
    arg = j * log_base
    if arg > 350.0:
        # 1 - e^arg = -e^arg (1 - e^(-arg))
        return arg + math.log1p(-math.exp(-arg))
    return math.log(abs(math.expm1(arg)))


def gaussian_binomial(m, k, q):
    """Gaussian (q-analogue) binomial coefficient with base alpha.

    Returns ``prod_{i=0}^{k-1} (1 - a^(m-i)) / prod_{i=1}^{k} (1 - a^i)``,
    the ordinary binomial coefficient in the base->1 limit, and 0 when
    k > m (empty family).  Positive for every positive base.
    """
    q = _as_base(q)
    if m < 0 or k < 0:
        raise DomainError(f"gaussian_binomial needs nonnegative indices, got ({m}, {k})")
    if int(m) != m or int(k) != k:
        raise DomainError(f"gaussian_binomial indices must be integers, got ({m}, {k})")
    m, k = int(m), int(k)
    if k > m:
        return 0.0
    if k == 0 or k == m:
        return 1.0
    if q.is_unit:
        return float(math.comb(m, k))
    return math.exp(log_gaussian_binomial(m, k, q))


def log_gaussian_binomial(m, k, q):
    """log of the Gaussian binomial; preconditions as for gaussian_binomial."""
    q = _as_base(q)
    if not (0 <= k <= m):
        raise DomainError(f"log_gaussian_binomial requires 0 <= k <= m, got ({m}, {k})")
    if q.is_unit:
        return log_gamma(m + 1) - log_gamma(k + 1) - log_gamma(m - k + 1)
    la = math.log(q.alpha)
    total = 0.0
    for i in range(int(k)):
        total += _log_one_minus_pow(la, m - i) - _log_one_minus_pow(la, i + 1)
    return total


def q_pochhammer(z, q, k):
    """Finite q-Pochhammer product prod_{j=0}^{k-1} (1 - a^j z)."""
    q = _as_base(q)
    if k < 0 or int(k) != k:
        raise DomainError(f"q_pochhammer order must be a nonnegative integer, got {k}")
    product = 1.0
    aj = 1.0
    for _ in range(int(k)):
        product *= 1.0 - aj * z
        aj *= q.alpha
    return product


def euler_product(z, q, tol):
    """Infinite product prod_{j>=0} (1 - a^j z), for base a < 1.

    Truncates at J certified by the analytic tail bound
    ``|log prod_{j>=J}| <= sum_{j>=J} |a^j z| / (1 - |a^j z|) <= tol``.
    """
    q = _as_base(q)
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if q.alpha >= 1 or q.is_unit:
        raise DomainError(f"euler_product converges only for base < 1, got {q.alpha}")
    alpha = q.alpha
    product = 1.0
    aj = 1.0  # alpha**j
    for _ in range(100_000):
        tail_scale = abs(aj * z)
        if tail_scale < 1.0:
            # sum_{j>=J} a^j|z|/(1-a^j|z|) <= a^J|z| / ((1-alpha)(1-a^J|z|))
            tail = tail_scale / ((1.0 - alpha) * (1.0 - tail_scale))
            if tail <= tol:
                return product
        product *= 1.0 - aj * z
        aj *= alpha
    raise ConvergenceError(
        f"euler_product did not certify its tail for z={z}, base={alpha}"
    )
