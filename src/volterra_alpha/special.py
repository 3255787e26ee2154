"""Gamma/Beta evaluation and the q-analogue substrate.

Everything here is a pure scalar function.  The q-products are written so
that bases arbitrarily close to (but distinct from) 1 and large indices
stay accurate: factors ``1 - base**j`` are always formed as
``-expm1(j*log(base))`` and products of many such factors accumulate in
log space.  Bases for which ``is_unit`` holds are routed through the
analytic limit instead of evaluating 0/0 ratios.  A value beyond the
float range raises DomainError rather than OverflowError or inf.
"""

import math

from .errors import ConvergenceError, DomainError, _integer, _real

UNIT_TOLERANCE = 1e-8


def is_unit(alpha):
    """Whether alpha is numerically indistinguishable from 1; every caller
    routes such an alpha through the alpha = 1 limit."""
    return abs(alpha - 1.0) < UNIT_TOLERANCE


def log_gamma(x):
    """log of the Gamma function for positive real x: ``math.lgamma``,
    within 1e-15 of mpmath on [1e-6, 1e4] (relative, or absolute where
    the value is below 1)."""
    if not x > 0:  # x = inf passes, to be refused as beyond the float range below
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    try:
        value = math.lgamma(x)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"log_gamma({x}) exceeds the float range")
    return value


def _exp_in_range(log_value, what):
    """exp(log_value), or DomainError giving ``what`` (the log's name) and
    the log where the value under- or overflows."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} = {log_value:.6g} gives a value outside the float range")
    return value


def beta(a, b):
    """Euler Beta function B(a, b) for positive arguments."""
    _real(a, 0.0, math.inf, "beta's a")
    _real(b, 0.0, math.inf, "beta's b")
    return _exp_in_range(log_gamma(a) + log_gamma(b) - log_gamma(a + b), f"log beta({a}, {b})")


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
    _real(q, 0.0, math.inf, "q-base")
    m, k = _integer(m, 0, "index m"), _integer(k, 0, "index k")
    if k > m:
        return 0.0
    if k == 0 or k == m:
        return 1.0
    try:
        if is_unit(q):
            return float(math.comb(m, k))
        return math.exp(log_gaussian_binomial(m, k, q))
    except OverflowError:
        raise DomainError(
            f"gaussian_binomial({m}, {k}, {q}) exceeds the float range; "
            "log_gaussian_binomial gives its logarithm"
        ) from None


def log_gaussian_binomial(m, k, q):
    """log of the Gaussian binomial; preconditions as for gaussian_binomial."""
    _real(q, 0.0, math.inf, "q-base")
    m, k = _integer(m, 0, "index m"), _integer(k, 0, "index k")
    if k > m:
        raise DomainError(f"log_gaussian_binomial requires k <= m, got ({m}, {k})")
    if is_unit(q):
        return log_gamma(m + 1) - log_gamma(k + 1) - log_gamma(m - k + 1)
    la = math.log(q)
    total = 0.0
    for i in range(k):
        total += _log_one_minus_pow(la, m - i) - _log_one_minus_pow(la, i + 1)
    return total


def q_pochhammer(z, q, k):
    """Finite q-Pochhammer product prod_{j=0}^{k-1} (1 - a^j z), for finite z.

    Raises DomainError once a^j, a factor or the product leaves the float
    range, without running the remaining factors.  For a base <= 1 the
    loop stops at the first |a^j z| below 2^-54: 1 - a^j z rounds to
    exactly 1 there and at every later j, so a huge k costs no more than
    the factors that move the product.
    """
    _real(q, 0.0, math.inf, "q-base")
    k = _integer(k, 0, "q_pochhammer order")
    if not math.isfinite(z):
        raise DomainError(f"q_pochhammer needs a finite z, got {z}")
    product = 1.0
    aj = 1.0
    for _ in range(k):
        if product == 0.0 or z == 0.0 or (q <= 1.0 and abs(aj * z) < 2.0**-54):
            break  # a zero factor, or every factor from here on is 1
        product *= 1.0 - aj * z
        if not math.isfinite(product):
            raise DomainError(f"q_pochhammer({z}, {q}, {k}) exceeds the float range")
        aj *= q
    return product


def euler_product(z, q, tol):
    """Infinite product prod_{j>=0} (1 - a^j z), for base a < 1.

    Truncates at J certified by the analytic tail bound
    ``|log prod_{j>=J}| <= sum_{j>=J} |a^j z| / (1 - |a^j z|) <= tol``.
    """
    _real(q, 0.0, 1.0, "euler_product's q-base")
    _real(tol, 0.0, 1.0, "tolerance")
    if is_unit(q):
        raise DomainError(f"euler_product converges only for base < 1, got {q}")
    alpha = q
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
        if not math.isfinite(product):
            raise DomainError(f"euler_product at z={z}, base={alpha} exceeds the float range")
        aj *= alpha
    raise ConvergenceError(
        f"euler_product did not certify its tail for z={z}, base={alpha}"
    )
