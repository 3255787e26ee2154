"""Apply the operator family, its adjoint and iterates to sampled functions.

Functions live on the midpoint grid x_i = (i + 1/2)/N of [0, 1] with
uniform quadrature weights 1/N.  Integrals over [0, u] are evaluated by
the fractional-cell rule: full cells below u contribute value/N, the cell
containing u contributes its piecewise-constant value times the covered
fraction.  This keeps every discretized operator a nonnegative matrix and
is exact on constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class GridFunction:
    """A function sampled at the N cell midpoints of [0, 1]."""

    values: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise DomainError("GridFunction needs a 1-d array of at least 2 samples")
        if self.weights is None:
            weights = np.full(values.size, 1.0 / values.size)
        else:
            weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if weights.shape != values.shape:
            raise DomainError("weights and values must have the same length")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("quadrature weights must sum to 1")

    @property
    def n_points(self):
        return self.values.size

    @property
    def x(self):
        return midpoints(self.n_points)


def midpoints(n):
    """Cell midpoints (i + 1/2)/n of the uniform partition of [0, 1]."""
    return (np.arange(n) + 0.5) / n


def grid_from_callable(fn, n):
    """Sample a callable on the midpoint grid."""
    return GridFunction(np.asarray(fn(midpoints(n)), dtype=float))


def _prefix_integrals(values):
    """prefix[k] = integral of the piecewise-constant function over the first k cells.

    Accumulated in extended precision so that matrix and cumulative-sum
    realizations of the same quadrature agree to well below 1e-14.
    """
    n = values.size
    prefix = np.zeros(n + 1, dtype=np.longdouble)
    np.cumsum(values.astype(np.longdouble), out=prefix[1:])
    return (prefix / n).astype(float)


def cell_fractions(upper, n):
    """The fractional-cell rule's view of each upper limit in [0, 1] on an
    n-cell grid: the index of the cell containing it and the covered
    fraction of that cell."""
    t = np.clip(upper, 0.0, 1.0) * n
    cell = np.minimum(t.astype(int), n - 1)
    return cell, t - cell


def integrate_cells(values, cells):
    """Fractional-cell quadrature of the sampled function over [0, upper],
    given ``cells = cell_fractions(upper, values.size)``."""
    cell, frac = cells
    prefix = _prefix_integrals(values)
    return prefix[cell] + frac * values[cell] / values.size


def apply_T(alpha, f):
    """Integrate f over [0, x^alpha] at every grid midpoint.

    ``alpha = 0`` is the projector onto constants (integral over all of
    [0, 1]); any positive alpha is the generic family member.
    """
    if not alpha >= 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        mean = float(np.dot(f.weights, f.values))
        return GridFunction(np.full(f.n_points, mean), f.weights)
    cells = cell_fractions(f.x**alpha, f.n_points)
    return GridFunction(integrate_cells(f.values, cells), f.weights)


def apply_T_adjoint(alpha, f):
    """Integrate f over [x^(1/alpha), 1] at every grid midpoint."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    total = float(np.sum(f.values)) / f.n_points
    cells = cell_fractions(f.x ** (1.0 / alpha), f.n_points)
    return GridFunction(total - integrate_cells(f.values, cells), f.weights)


def apply_T_iterate(alpha, f, n):
    """n-fold application of apply_T; cost O(n N)."""
    if n < 1 or int(n) != n:
        raise DomainError(f"iterate order must be a positive integer, got {n}")
    out = f
    for _ in range(int(n)):
        out = apply_T(alpha, out)
    return out


def lp_norm(f, p):
    """Weighted l^p norm (sum w_i |v_i|^p)^(1/p)."""
    if not (1.0 < p < math.inf):
        raise DomainError(f"p must lie in (1, inf), got {p}")
    return float(np.dot(f.weights, np.abs(f.values) ** p) ** (1.0 / p))


def inner(f, g):
    """Weighted inner product matching the grid quadrature."""
    return float(np.dot(f.weights * f.values, g.values))


@dataclass(frozen=True)
class LpContext:
    """A (p, q) exponent pair with the conjugate exponents attached."""

    p: float
    q: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not (1.0 < value < math.inf):
                raise DomainError(f"{name} must lie in (1, inf), got {value}")

    @property
    def p_conj(self):
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self):
        return self.q / (self.q - 1.0)
