"""Apply the operator family, its adjoint and iterates to sampled functions.

A grid function is a 1-d float array of its values at the midpoints
x_i = (i + 1/2)/N of the uniform partition of [0, 1], the one grid of the
library; every integral weighs each sample by 1/N.  Integrals over
[0, u] are evaluated by the fractional-cell rule: full cells below u
contribute value/N, the cell containing u contributes its
piecewise-constant value times the covered fraction.  This keeps every
discretized operator a nonnegative matrix and is exact on constants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _integer, _real
from .kernels import MAX_KERNEL_ORDER

# the largest grid, checked before any allocation: its samples take
# 512 MiB, while no test, demo or benchmark command uses more than 4096
# points
MAX_GRID_SIZE = 2**26


def midpoints(n):
    """Cell midpoints (i + 1/2)/n of the uniform partition of [0, 1]."""
    n = _integer(n, 1, "grid size", most=MAX_GRID_SIZE)
    return (np.arange(n) + 0.5) / n


def _samples(f):
    """The grid function ``f`` as a float array; DomainError unless it is
    1-d with at least 2 samples."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise DomainError("a grid function needs a 1-d array of at least 2 samples")
    return f


def _prefix_integrals(values):
    """prefix[k] = integral of the piecewise-constant function over the first k cells.

    Accumulated in extended precision so that matrix and cumulative-sum
    realizations of the same quadrature agree to well below 1e-14.
    """
    n = values.size
    prefix = np.zeros(n + 1, dtype=np.longdouble)
    np.cumsum(values.astype(np.longdouble), out=prefix[1:])
    return (prefix / n).astype(float)


def power_cells(exponent, n):
    """The fractional-cell rule's view of the upper limits x_i^exponent at
    the n midpoints: the index of the cell containing each and the covered
    fraction of that cell.  The one check of the forward maps' alpha:
    [0, inf], where 0 is the projector onto constants and inf the zero map."""
    if not exponent >= 0:
        raise DomainError(f"alpha must be nonnegative, got {exponent}")
    t = np.clip(midpoints(n) ** exponent, 0.0, 1.0) * n
    cell = np.minimum(t.astype(int), n - 1)
    return cell, t - cell


def integrate_cells(values, cells):
    """Fractional-cell quadrature of the sampled function over [0, x_i^e]
    at each midpoint, given ``cells = power_cells(e, values.size)``."""
    cell, frac = cells
    prefix = _prefix_integrals(values)
    return prefix[cell] + frac * values[cell] / values.size


def integrate_cells_transpose(values, cells):
    """The transpose of ``integrate_cells``: entry j is the sum of values_i
    over the rows whose cell lies above j plus frac_i values_i over those
    whose cell is j, over N, in extended precision like the prefix sums."""
    cell, frac = cells
    n = values.size
    whole = np.bincount(cell, weights=values, minlength=n)
    part = np.bincount(cell, weights=frac * values, minlength=n)
    above = np.zeros(n, dtype=np.longdouble)
    above[:-1] = np.cumsum(whole[:0:-1], dtype=np.longdouble)[::-1]
    return ((above + part) / n).astype(float)


def apply_T(alpha, f):
    """Integrate f over [0, x^alpha] at every grid midpoint.

    ``alpha = 0`` is the projector onto constants (integral over all of
    [0, 1]); any positive alpha is the generic family member.
    """
    f = _samples(f)
    n = f.size
    if alpha == 0:
        return np.full(n, float(np.dot(np.full(n, 1.0 / n), f)))
    return integrate_cells(f, power_cells(alpha, n))


def apply_T_adjoint(alpha, f):
    """Integrate f over [x^(1/alpha), 1] at every grid midpoint."""
    f = _samples(f)
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    n = f.size
    total = float(np.sum(f)) / n
    return total - integrate_cells(f, power_cells(1.0 / alpha, n))


def apply_T_iterate(alpha, f, n):
    """n-fold application of apply_T; cost O(n N)."""
    out = f
    for _ in range(_integer(n, 1, "iterate order", most=MAX_KERNEL_ORDER)):
        out = apply_T(alpha, out)
    return out


def lp_norm(f, p):
    """Grid l^p norm (sum_i |f_i|^p / N)^(1/p), the L^p norm of the step
    function.

    The samples are first divided by max |f|, so the largest term is
    exactly 1, and the norm is multiplied back by it: no |f_i|^p overflows
    or underflows where the norm itself does not, for any finite p.  A
    zero or non-finite maximum leaves the samples unscaled.
    """
    f = _samples(f)
    _real(p, 1.0, math.inf, "p")
    a = np.abs(f)
    top = float(np.max(a))
    top = top if 0.0 < top < math.inf else 1.0
    mean = np.dot(np.full(f.size, 1.0 / f.size), (a / top) ** p)
    return float(mean ** (1.0 / p) * top)


def inner(f, g):
    """Grid inner product sum_i f_i g_i / N, the L^2 one of the step
    functions."""
    f, g = _samples(f), _samples(g)
    return float(np.dot(f * (1.0 / f.size), g))


@dataclass(frozen=True)
class LpContext:
    """A (p, q) exponent pair, with the conjugate exponent of p attached."""

    p: float
    q: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            _real(value, 1.0, math.inf, name)

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)
