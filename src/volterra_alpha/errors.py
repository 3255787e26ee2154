"""Exception types shared across the library, and its three argument rules.

Numerical routines raise these instead of returning silent garbage: a
caller can always distinguish "the answer is x" from "the method broke
down, here is what we know".  Before any work, every whole-number
argument passes ``_integer``, every point of [0, 1] ``_unit_interval`` and
every real parameter on an open interval (alpha, the exponents p and q,
a q-base) ``_real``.  A real parameter whose interval is
closed or contains inf keeps its own check at its site.
"""

import numpy as np


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


def _integer(value, least, what, most=None):
    """``value`` as an int; DomainError naming ``what`` and the value for a
    nan, an infinity, a fraction, a value below ``least`` or one above the
    cap ``most``, if there is one."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf and nan
        whole = None
    if whole is None or whole != value or whole < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value}")
    if most is not None and whole > most:
        raise DomainError(f"{what} must be at most {most}, got {value}")
    return whole


def _real(value, low, high, what):
    """``value`` as a float inside the open interval (low, high);
    DomainError naming ``what`` and the value for a nan, an infinity or a
    value outside."""
    if low < value < high:  # nan fails every comparison
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise DomainError(f"{what} must lie in ({low:g}, {high:g}), got {value}")


def _unit_interval(x, what):
    """``x`` as a float array; DomainError naming ``what`` and the first
    point outside [0, 1], nan included."""
    x = np.asarray(x, dtype=float)
    bad = ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        raise DomainError(f"{what} = {x[bad].flat[0]} lies outside [0, 1]")
    return x


class NumericsError(ArithmeticError):
    """Base class for numerical-method breakdowns."""


class CancellationError(NumericsError):
    """An alternating sum lost too many digits to be trusted."""


class ConvergenceError(NumericsError):
    """An infinite product/series could not be truncated within tolerance."""


class SearchHorizonError(NumericsError):
    """A scan for zeros failed a check (a sign, the count, a gap); carries
    the zeros found before the fault."""

    def __init__(self, message, partial=()):
        super().__init__(message)
        self.partial = list(partial)


class IterationLimitError(NumericsError):
    """Power-type iteration hit its cap without converging; carries the last estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ComplexPairError(NumericsError):
    """Dominant eigenvalue estimate oscillates, consistent with a complex pair."""
