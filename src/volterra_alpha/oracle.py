"""Matrix ground truth for every analytic claim in the library.

The forward operator is discretized on the midpoint grid by exact
row-wise integration of the indicator kernel, which reproduces apply_T
bit-for-bit.  Singular values, eigenvalues, spectral radii and (p, q)
norms of the matrix then approximate the operator quantities to O(1/N),
independently of any closed form.

Every route is matrix-free: the product and the transposed product are
prefix sums over the fractional-cell rule, O(N) each, and eigenvalues
and norms are built from them alone; a triangular matrix's spectral
radius is read off its diagonal of upper limits.  The dense
N x N entries exist only as the reference that tests compare against.

Vectors are grid functions on the uniform midpoint grid, and norms and
inner products are the grid ones of ``transform`` (each sample weighs
1/N), so matrix singular values approximate L^2 singular values with no
N-dependent scale factor; the matrix adjoint is the plain transpose.
"""

import math
from collections import deque
from functools import cached_property

import numpy as np

from .bounds import log_iterate_norm_lower
from .errors import ComplexPairError, DomainError, IterationLimitError, NumericsError, _integer
from .kernels import MAX_KERNEL_ORDER
from .transform import LpContext, integrate_cells, integrate_cells_transpose, lp_norm, power_cells

_CTX22 = LpContext(2.0, 2.0)
# relative gap allowed between ||Mv|| and |lambda| ||v|| once an eigenpair
# settles: real pairs of the oracle matrices stay below 1e-6 (N = 2048,
# count 5, alpha 0.1 to 0.95), a rotation block gives 1
_EIGENVECTOR_GAP = 1e-3
# top_eigenvalues refuses an eigenvalue below _RESOLVABLE * alpha / N.  In
# a scan of alpha = 0.05, 0.06, ..., 0.99 at N = 512 and 2048 (tol 1e-8 and
# 1e-10), every eigenvalue past the first that the power route settled on
# lay at or above 0.34 alpha / N, and every one below 0.3 alpha / N failed
_RESOLVABLE = 0.3
# no caller sets these: the step cap of every power iteration and the relative
# tolerances of the 2,2 norms, of the Gram eigenvalues and of all other routes
_MAX_STEPS = 100_000
_NORM_TOL = 1e-10
_GRAM_TOL = 1e-12
_TOL = 1e-8  # below _EIGENVECTOR_GAP, so a settled eigenpair can meet it


class OperatorMatrix:
    """Quadrature discretization of one family member.

    Its products cost O(N).  ``entries`` is the dense reference matrix,
    built on first read; no library route reads it.
    """

    def __init__(self, alpha, n_points):
        self.alpha = alpha
        self.n_points = n_points
        self._cells = power_cells(alpha, n_points)

    @cached_property
    def entries(self):
        t = self._upper_limits
        return np.clip(t[:, None] - np.arange(self.n_points)[None, :], 0.0, 1.0) / self.n_points

    @property
    def _upper_limits(self):
        """N x_i^alpha, rebuilt exactly from its whole and fractional cells."""
        cell, frac = self._cells
        return cell + frac

    def matvec(self, v):
        """M v."""
        return integrate_cells(v, self._cells)

    def rmatvec(self, v):
        """M^T v."""
        return integrate_cells_transpose(v, self._cells)


def discretize(alpha, n_points):
    """Exact-overlap discretization: entry (i, j) is the length of cell j
    covered by [0, x_i^alpha].  alpha = 0 yields the projector onto
    constants (all entries 1/N)."""
    return OperatorMatrix(alpha=float(alpha), n_points=_integer(n_points, 16, "n_points"))


def _power(step, v, tol):
    """The one power-iteration loop, fed a Rayleigh step (eigenvalues) or
    a duality-map step ((p, q) norms).

    ``step(v)`` returns the current estimate and the next vector, or None
    for the vector once the image vanishes (the estimate is then 0).  Stops
    when two successive estimates agree to ``tol`` relative and returns
    ``(estimate, v)``.  A non-finite estimate raises IterationLimitError at
    once, carrying the last finite one (None if there is none); after
    ``_MAX_STEPS`` steps it raises ComplexPairError for a two-cycle, else
    IterationLimitError with the recent bracket.
    """
    recent = deque(maxlen=50)
    for k in range(_MAX_STEPS):
        est, nxt = step(v)
        if not math.isfinite(est):
            raise IterationLimitError(
                f"power iteration estimate became {est} at step {k + 1}",
                estimate=recent[-1] if recent else None,
            )
        if nxt is None:
            return 0.0, v
        v = nxt
        if recent and abs(est - recent[-1]) <= tol * max(abs(est), 1e-300):
            return est, v
        recent.append(est)
    # stagnant two-cycles in the estimate signal a complex pair
    if len(recent) > 4 and abs(recent[-1] - recent[-3]) < 1e-3 * abs(recent[-1] - recent[-2]):
        raise ComplexPairError(
            f"dominant eigenvalue estimate oscillates between {recent[-2]:.3e} "
            f"and {recent[-1]:.3e}"
        )
    raise IterationLimitError(
        f"power iteration did not settle in {_MAX_STEPS} steps; recent estimate "
        f"bracket [{min(recent):.6e}, {max(recent):.6e}]",
        estimate=recent[-1],
    )


def _dominant(apply_fn, v, tol):
    """Dominant real eigenpair of a linear map, by Rayleigh steps.

    A rotation keeps its Rayleigh quotient still while v turns, so the
    settled pair must also satisfy ||Mv|| = |lambda| ||v||.
    """

    def step(v):
        g = apply_fn(v)
        lam = float(np.dot(v, g) / np.dot(v, v))
        norm = float(np.linalg.norm(g))
        return lam, (g / norm if norm != 0.0 else None)

    lam, v = _power(step, v, tol)
    image = float(np.linalg.norm(apply_fn(v)))
    expect = abs(lam) * float(np.linalg.norm(v))
    if abs(image - expect) > _EIGENVECTOR_GAP * max(image, expect):
        raise ComplexPairError(
            f"settled estimate {lam:.3e} is not an eigenvalue: ||Mv|| = {image:.3e} "
            f"but |lambda| ||v|| = {expect:.3e}"
        )
    return lam, v


def _deflated_eigenvalues(apply_fn, n, count, tol):
    """The ``count`` dominant real eigenvalues of a linear map, by power
    iteration with orthogonal (Schur) deflation.

    With Q an orthonormal basis of the invariant subspace found so far
    and P = I - Q Q^T, the compression P M P carries the remaining
    eigenvalues, and an error in Q perturbs it by no more than its size
    times ||M||.  Deflating a non-symmetric M with left eigenvectors
    instead divides by l.r, which is 3e-10 for the unit dominant pair at
    alpha = 0.936, N = 2048: eigenvector residuals near 1e-9 then become
    O(1) errors and the next iteration never settles.
    """
    basis = []

    def project(v):
        for b in basis:
            v = v - np.dot(b, v) * b
        return v

    def apply_deflated(v):
        return project(apply_fn(project(v)))

    out = []
    for _ in range(count):
        lam, v = _dominant(apply_deflated, project(np.ones(n) / math.sqrt(n)), tol)
        v = project(v)
        basis.append(v / np.linalg.norm(v))
        out.append(lam)
    return out


def _pq_power(maps, ctx, start, tol):
    """(p, q) norm by the duality-map power method (Boyd 1974,
    Higham 1992): a p-unit f moves to the p-dual of M* J_q(Mf), and the
    ratio ||Mf||_q rises to the norm.  At p = q = 2 both exponents are 1,
    so this is power iteration on the Gram operator, signed matrices
    included.  The step carries g = Mf, so the settled ratio costs no
    product beyond the one that measured it."""
    forward, adjoint = maps
    p, q = ctx.p, ctx.q

    def step(g):
        f = adjoint(g ** (q - 1.0)) ** (1.0 / (p - 1.0))
        norm = lp_norm(f, p)
        if norm == 0.0:
            return 0.0, None
        g = forward(f / norm)
        return lp_norm(g, q), g

    return _power(step, forward(start / lp_norm(start, p)), tol)[0]


def largest_singular_value(m):
    """Power iteration on the Gram operator (adjoint of forward) to 1e-10:
    the (2, 2) norm of the matrix."""
    return _pq_power((m.matvec, m.rmatvec), _CTX22, np.ones(m.n_points), _NORM_TOL)


def matrix_norm_22(ma, mb):
    """2,2 norm of the signed difference M_a - M_b of two
    discretizations on one grid, applied as differences of products, to
    1e-10."""
    if ma.n_points != mb.n_points:
        raise DomainError(f"grids differ: {ma.n_points} and {mb.n_points} points")
    # deterministic start with no special symmetry
    start = 1.0 + 0.001 * np.sin(np.arange(ma.n_points))
    maps = (
        lambda v: ma.matvec(v) - mb.matvec(v),
        lambda v: ma.rmatvec(v) - mb.rmatvec(v),
    )
    return _pq_power(maps, _CTX22, start, _NORM_TOL)


def top_eigenvalues(m, count):
    """The ``count`` largest-magnitude real eigenvalues of the matrix, by
    power iteration with Schur deflation to 1e-8.

    Raises ComplexPairError when a dominant complex pair blocks it.  For
    a family member with 0 < alpha < 1, whose eigenvalues are
    alpha^k (1 - alpha), a count past the first whose last eigenvalue lies
    below the resolvability floor ``_RESOLVABLE * alpha / N`` raises
    DomainError at once: the matrix does not resolve that eigenvalue, and
    power iteration would only run to its cap.  The floor scales with
    alpha because the non-constant part of the operator does: at
    alpha = 1e-6 the 512-point matrix still gives alpha (1 - alpha) to 0.2%.
    """
    count = _integer(count, 1, "count", most=8)
    if 0.0 < m.alpha < 1.0 and count > 1:
        last = m.alpha ** (count - 1) * (1.0 - m.alpha)
        if last < _RESOLVABLE * m.alpha / m.n_points:
            raise DomainError(
                f"eigenvalue {count - 1} of alpha = {m.alpha}, {last:.3e}, lies below the "
                f"resolvability floor {_RESOLVABLE} alpha/N of the {m.n_points}-point grid"
            )
    return _deflated_eigenvalues(m.matvec, m.n_points, count, _TOL)


def top_gram_eigenvalues(m, count):
    """Largest eigenvalues of the Gram operator (squared singular values),
    by power iteration to 1e-12 with orthogonal deflation on M^T M,
    applied as two products and never formed."""
    count = _integer(count, 1, "count", most=8)

    def gram(v):
        return m.rmatvec(m.matvec(v))

    return _deflated_eigenvalues(gram, m.n_points, count, _GRAM_TOL)


def spectral_radius_estimate(m):
    """Exact spectral radius of a triangular discretization.

    Every alpha >= 1 gives N x_i^alpha <= i + 1 on each row i, so the
    matrix is lower-triangular and its radius is its largest diagonal
    entry, found in O(N).  Any other matrix is refused: for alpha < 1 the
    radius is the top eigenvalue, ``top_eigenvalues(m, 1)[0]``.
    """
    t = m._upper_limits
    rows = np.arange(m.n_points)
    if not np.all(t <= rows + 1):
        raise DomainError(
            f"the alpha = {m.alpha} discretization is not triangular; its spectral "
            "radius is top_eigenvalues(m, 1)[0]"
        )
    return float(np.max(np.clip(t - rows, 0.0, 1.0)) / m.n_points)


def iterate_matrix_norm(m, n, ctx):
    """(p, q)-norm estimate of the n-fold composition, applied matrix-free
    (the dense n-th power is never formed); n = 1 is the (p, q) norm of
    the matrix.

    For a nonnegative kernel the duality-map steps converge to the norm and
    stop when ||M^n f||_q settles to 1e-8; 0 means M^n vanishes.  At p = q
    and n >= 2 an estimate below the paper's lower bound raises NumericsError.
    """
    n = _integer(n, 1, "iterate order", most=MAX_KERNEL_ORDER)
    maps = (_repeated(m.matvec, n), _repeated(m.rmatvec, n))
    est = _pq_power(maps, ctx, np.ones(m.n_points), _TOL)
    if n >= 2 and ctx.p == ctx.q and est > 0.0 and m.alpha > 0.0:
        log_est, lower = math.log(est), log_iterate_norm_lower(m.alpha, n, ctx.p)
        if log_est < lower:
            raise NumericsError(
                f"log ||M^{n}|| = {log_est:.6g} at alpha = {m.alpha} lies below the proven "
                f"lower bound {lower:.6g}; the {m.n_points}-point grid does not resolve it"
            )
    return est


def _repeated(apply_fn, n):
    def apply_n(v):
        for _ in range(n):
            v = apply_fn(v)
        return v

    return apply_n
