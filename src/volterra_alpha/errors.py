"""Exception types shared across the library.

Numerical routines raise these instead of returning silent garbage: a
caller can always distinguish "the answer is x" from "the method broke
down, here is what we know".
"""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NumericsError(ArithmeticError):
    """Base class for numerical-method breakdowns."""


class CancellationError(NumericsError):
    """An alternating sum lost too many digits to be trusted."""


class QuadratureError(NumericsError):
    """Adaptive quadrature failed to meet its target; carries the largest
    error estimate of the panels that missed it."""

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


class ConvergenceError(NumericsError):
    """An infinite product/series could not be truncated within tolerance."""


class SearchHorizonError(NumericsError):
    """A certified zero bracket failed its sign or series-noise check;
    carries the zeros found so far."""

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
