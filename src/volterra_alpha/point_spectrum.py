"""Spectrum, point spectrum and eigenfunctions of the family on L^p.

For exponent alpha >= 1 the operator is quasi-nilpotent (spectrum {0}, no
eigenvalues).  For alpha < 1 the point spectrum is the geometric sequence
``alpha^n (1 - alpha)`` and the n-th eigenfunction is
``x^(alpha/(1-alpha)) P_n(log x)`` with P_n a degree-n polynomial whose
coefficients satisfy a one-term recursion; we normalize P_n(0) = 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _integer, _real, _unit_interval
from .special import is_unit
from .transform import apply_T, lp_norm, midpoints


@dataclass(frozen=True)
class PowerLogFunction:
    """A function x^gamma * P(log x) with P given by ``coeffs`` (ascending)."""

    gamma: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, x):
        """The value at each x in [0, 1]: 0 at x = 0 (gamma > 0 kills every
        term), coeffs[0] at x = 1 and ``mantissa * exp(scale)`` of
        ``_scaled`` between; DomainError outside [0, 1], for nan, and where
        the value passes the float range."""
        arr = np.atleast_1d(_unit_interval(x, "eigenfunction argument x"))
        out = np.zeros_like(arr)
        out[arr == 1.0] = self.coeffs[0]
        inner = (arr > 0.0) & (arr < 1.0)
        mantissa, scale = self._scaled(np.log(arr[inner]))
        with np.errstate(over="ignore"):
            values = mantissa * np.exp(scale)
        if not np.isfinite(values).all():
            bad = arr[inner][~np.isfinite(values)][0]
            raise DomainError(f"eigenfunction value at x = {bad} exceeds the float range")
        out[inner] = values
        return out if np.ndim(x) else float(out[0])

    def _scaled(self, logs):
        """x^gamma P(log x) at each log x < 0 as ``mantissa * exp(scale)``:
        scale is the log of the largest term |c_k (log x)^k x^gamma| and
        mantissa the sum of the signed terms relative to it, so neither
        overflows or underflows where the value itself does not."""
        k = np.arange(self.coeffs.size)
        log_terms = np.log(np.abs(self.coeffs)) + np.multiply.outer(np.log(-logs), k)
        top = log_terms.max(axis=1)
        # (log x)^k has the sign (-1)^k
        signs = np.sign(self.coeffs) * (-1.0) ** k
        mantissa = np.exp(log_terms - top[:, None]) @ signs
        return mantissa, top + self.gamma * logs


@dataclass(frozen=True)
class SpectrumDescription:
    """Spectral data of one family member on L^p (p-independent)."""

    alpha: float
    spectral_radius: float
    has_point_spectrum: bool

    def eigenvalues(self, count):
        count = _integer(count, 0, "eigenvalue count")
        if not self.has_point_spectrum:
            return []
        return [eigenvalue(self.alpha, n) for n in range(count)]


def spectrum_description(alpha):
    """Spectrum report: {0} alone for alpha >= 1, plus the geometric
    eigenvalue sequence for alpha < 1."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if alpha >= 1.0 or is_unit(alpha):
        return SpectrumDescription(alpha, 0.0, False)
    return SpectrumDescription(alpha, 1.0 - alpha, True)


def eigenvalue(alpha, n):
    """n-th eigenvalue alpha^n (1 - alpha), for alpha < 1."""
    _real(alpha, 0.0, 1.0, "the point spectrum's alpha")
    n = _integer(n, 0, "eigenvalue index")
    lam = math.exp(n * math.log(alpha)) * (1.0 - alpha)
    if lam == 0.0:
        log_lam = n * math.log(alpha) + math.log1p(-alpha)
        raise DomainError(
            f"log eigenvalue({alpha}, {n}) = {log_lam:.6g} gives a value below the float range"
        )
    return lam


def eigenfunction(alpha, n):
    """Eigenfunction for the n-th eigenvalue, normalized so P(0) = 1.

    Coefficient k of the log-polynomial is
    ``(1/k!) prod_{j<k} (1 - alpha^(j-n)) / (1 - alpha^(-1))``; the product
    terminates, so the polynomial has degree exactly n.  The coefficients
    grow like alpha^(-k n); a coefficient beyond the float range (from
    n = 49 at alpha = 0.5) raises DomainError.
    """
    _real(alpha, 0.0, 1.0, "the eigenfunctions' alpha")
    n = _integer(n, 0, "eigenfunction index")
    la = math.log(alpha)
    try:
        step = math.expm1(-la)  # alpha^(-1) - 1
    except OverflowError:  # alpha below ~5.6e-309
        step = math.inf
    coeffs = [1.0]
    try:
        for k in range(n):
            if step < math.inf:
                # (1 - alpha^(k-n)) / (1 - alpha^(-1)) with both signs flipped
                coeffs.append(coeffs[k] * math.expm1((k - n) * la) / (step * (k + 1)))
            else:  # the same ratio as alpha^(k-n+1) (1 - alpha^(n-k)) / (1 - alpha)
                ratio = math.exp((k - n + 1) * la) * math.expm1((n - k) * la) / math.expm1(la)
                coeffs.append(coeffs[k] * ratio / (k + 1))
    except OverflowError:
        coeffs.append(math.inf)
    if not math.isfinite(coeffs[-1]):  # once inf, every later coefficient is
        raise DomainError(
            f"eigenfunction coefficients of alpha = {alpha}, n = {n} exceed the float range"
        )
    return PowerLogFunction(gamma=alpha / (1.0 - alpha), coeffs=coeffs)


def eigen_residual(alpha, n, grid, p):
    """Relative L^p residual of the eigenpair on an N-point midpoint grid.

    The grid starts at 1/(2N), which sidesteps the log singularity at 0.
    """
    fn = eigenfunction(alpha, n)
    lam = eigenvalue(alpha, n)
    mantissa, scale = fn._scaled(np.log(midpoints(grid)))
    # the residual is scale-free: divide f by its largest term on the grid
    f = mantissa * np.exp(scale - np.max(scale))
    return lp_norm(apply_T(alpha, f) - lam * f, p) / lp_norm(f, p)


def projection_residuals(alpha, m_max, target, grid):
    """Grid least-squares distance from ``target`` to span{f_0..f_m}.

    Weaker stand-in for density of the eigenfunction family: the returned
    sequence (m = 0 .. m_max) must be nonincreasing.  No convergence rate
    is asserted.
    """
    m_max = _integer(m_max, 0, "m_max")
    x = midpoints(grid)
    w = math.sqrt(1.0 / grid)
    t = np.asarray(target(x), dtype=float) * w
    residuals = []
    columns = []
    for m in range(m_max + 1):
        columns.append(eigenfunction(alpha, m)(x) * w)
        basis = np.column_stack(columns)
        coeff, *_ = np.linalg.lstsq(basis, t, rcond=None)
        residuals.append(float(np.linalg.norm(t - basis @ coeff)))
    return residuals
