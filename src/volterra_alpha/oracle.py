"""Matrix ground truth for every analytic claim in the library.

The forward operator is discretized on the midpoint grid by exact
row-wise integration of the indicator kernel, which reproduces apply_T
bit-for-bit.  Singular values, eigenvalues, spectral radii and (p, q)
norms of the matrix then approximate the operator quantities to O(1/N),
independently of any closed form.

Every route is matrix-free: the product and the transposed product are
prefix sums over the fractional-cell rule, O(N) each, and eigenvalues,
norms and spectral-radius bounds are built from them alone.  The dense
N x N entries exist only as the reference that tests compare against.

The machine inner product is the quadrature one, <f, g> = sum w_i f_i g_i,
so matrix singular values approximate L^2 singular values with no
N-dependent scale factor; the matrix adjoint is the weighted transpose.
"""

import math
from collections import deque
from functools import cached_property

import numpy as np

from .errors import ComplexPairError, DomainError, IterationLimitError
from .transform import LpContext, cell_fractions, integrate_cells, midpoints

_CTX22 = LpContext(2.0, 2.0)
# relative gap allowed between ||Mv|| and |lambda| ||v|| once an eigenpair
# settles: real pairs of the oracle matrices stay below 1e-6 (N = 2048,
# count 5, alpha 0.1 to 0.95), a rotation block gives 1
_EIGENVECTOR_GAP = 1e-3


class OperatorMatrix:
    """Quadrature discretization of one family member.

    Its products cost O(N).  ``entries`` is the dense reference matrix,
    built on first read; no library route reads it.
    """

    def __init__(self, alpha, weights):
        self.alpha = alpha
        self.weights = weights
        self._cells = cell_fractions(midpoints(weights.size) ** alpha, weights.size)

    @cached_property
    def entries(self):
        t = self._upper_limits
        return np.clip(t[:, None] - np.arange(self.n_points)[None, :], 0.0, 1.0) / self.n_points

    @property
    def _upper_limits(self):
        """N x_i^alpha, rebuilt exactly from its whole and fractional cells."""
        cell, frac = self._cells
        return cell + frac

    @property
    def n_points(self):
        return self.weights.size

    def matvec(self, v):
        """M v."""
        return integrate_cells(v, self._cells)

    def rmatvec(self, v):
        """M^T v; for the discretization (M^T v)_j sums v_i over the rows
        whose cell lies above j, plus frac_i v_i over those whose cell is j."""
        cell, frac = self._cells
        n = v.size
        whole = np.bincount(cell, weights=v, minlength=n)
        part = np.bincount(cell, weights=frac * v, minlength=n)
        above = np.zeros(n, dtype=np.longdouble)
        above[:-1] = np.cumsum(whole[:0:-1], dtype=np.longdouble)[::-1]
        return ((above + part) / n).astype(float)


def discretize(alpha, n_points):
    """Exact-overlap discretization: entry (i, j) is the length of cell j
    covered by [0, x_i^alpha].  alpha = 0 yields the projector onto
    constants (all entries 1/N)."""
    if not alpha >= 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if n_points < 16 or int(n_points) != n_points:
        raise DomainError(f"n_points must be an integer >= 16, got {n_points}")
    n = int(n_points)
    return OperatorMatrix(alpha=float(alpha), weights=np.full(n, 1.0 / n))


def _wnorm(v, w, p):
    return float(np.dot(w, np.abs(v) ** p) ** (1.0 / p))


def _power(step, v, tol, max_iter):
    """The one power-iteration loop, fed a Rayleigh step (eigenvalues) or
    a duality-map step ((p, q) norms).

    ``step(v)`` returns the current estimate and the next vector, or None
    for the vector once the image vanishes (the estimate is then 0).  Stops
    when two successive estimates agree to ``tol`` relative and returns
    ``(estimate, v)``.  A non-finite estimate raises IterationLimitError at
    once, carrying the last finite one (None if there is none); at
    ``max_iter`` it raises ComplexPairError for a two-cycle, else
    IterationLimitError with the recent bracket.
    """
    recent = deque(maxlen=50)
    for k in range(max_iter):
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
        f"power iteration did not settle in {max_iter} steps; recent estimate "
        f"bracket [{min(recent):.6e}, {max(recent):.6e}]",
        estimate=recent[-1],
    )


def _dominant(apply_fn, v, tol, max_iter):
    """Dominant real eigenpair of a linear map, by Rayleigh steps.

    A rotation keeps its Rayleigh quotient still while v turns, so the
    settled pair must also satisfy ||Mv|| = |lambda| ||v||.
    """

    def step(v):
        g = apply_fn(v)
        lam = float(np.dot(v, g) / np.dot(v, v))
        norm = float(np.linalg.norm(g))
        return lam, (g / norm if norm != 0.0 else None)

    lam, v = _power(step, v, tol, max_iter)
    image = float(np.linalg.norm(apply_fn(v)))
    expect = abs(lam) * float(np.linalg.norm(v))
    if abs(image - expect) > _EIGENVECTOR_GAP * max(image, expect):
        raise ComplexPairError(
            f"settled estimate {lam:.3e} is not an eigenvalue: ||Mv|| = {image:.3e} "
            f"but |lambda| ||v|| = {expect:.3e}"
        )
    return lam, v


def _deflated_eigenvalues(apply_fn, n, count, tol, max_iter):
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
        lam, v = _dominant(apply_deflated, project(np.ones(n) / math.sqrt(n)), tol, max_iter)
        v = project(v)
        basis.append(v / np.linalg.norm(v))
        out.append(lam)
    return out


def _pq_power(maps, w, ctx, start, tol, max_iter):
    """Weighted (p, q) norm by the duality-map power method (Boyd 1974,
    Higham 1992): a p-unit f moves to the p-dual of M* J_q(Mf), and the
    ratio ||Mf||_q rises to the norm.  At p = q = 2 both exponents are 1,
    so this is power iteration on the Gram operator, signed matrices
    included.  The step carries g = Mf, so the settled ratio costs no
    product beyond the one that measured it."""
    forward, adjoint = maps
    p, q = ctx.p, ctx.q

    def step(g):
        f = (adjoint(w * g ** (q - 1.0)) / w) ** (1.0 / (p - 1.0))
        norm = _wnorm(f, w, p)
        if norm == 0.0:
            return 0.0, None
        g = forward(f / norm)
        return _wnorm(g, w, q), g

    return _power(step, forward(start / _wnorm(start, w, p)), tol, max_iter)[0]


def largest_singular_value(m, tol=1e-10, max_iter=100_000):
    """Power iteration on the Gram operator (adjoint of forward), in the
    weighted inner product: the (2, 2) case of pq_norm_estimate."""
    return pq_norm_estimate(m, _CTX22, tol, max_iter)


def matrix_norm_22(ma, mb, tol=1e-10, max_iter=100_000):
    """Weighted 2,2 norm of the signed difference M_a - M_b of two
    discretizations on one grid, applied as differences of products."""
    if ma.n_points != mb.n_points:
        raise DomainError(f"grids differ: {ma.n_points} and {mb.n_points} points")
    # deterministic start with no special symmetry
    start = 1.0 + 0.001 * np.sin(np.arange(ma.n_points))
    maps = (
        lambda v: ma.matvec(v) - mb.matvec(v),
        lambda v: ma.rmatvec(v) - mb.rmatvec(v),
    )
    return _pq_power(maps, ma.weights, _CTX22, start, tol, max_iter)


def top_eigenvalues(m, count, tol=1e-10, max_iter=100_000):
    """The ``count`` largest-magnitude real eigenvalues of the matrix, by
    power iteration with Schur deflation.

    Raises ComplexPairError when a dominant complex pair blocks it.
    """
    if count < 1 or count > 8:
        raise DomainError(f"count must be in 1..8, got {count}")
    return _deflated_eigenvalues(m.matvec, m.n_points, count, tol, max_iter)


def top_gram_eigenvalues(m, count, tol=1e-12, max_iter=100_000):
    """Largest eigenvalues of the Gram operator (squared singular values),
    by power iteration with orthogonal deflation on the symmetrized matrix."""
    if count < 1 or count > 8:
        raise DomainError(f"count must be in 1..8, got {count}")
    w = m.weights
    # similarity S = W^(1/2) M W^(-1/2) makes the Gram operator S^T S
    # symmetric; it is applied as two products, never formed
    sw = np.sqrt(w)

    def gram(v):
        return m.rmatvec(w * m.matvec(v / sw)) / sw

    return _deflated_eigenvalues(gram, m.n_points, count, tol, max_iter)


def spectral_radius_estimate(m, power=1024):
    """Upper estimate of the spectral radius, exact for a triangular
    discretization.

    Every alpha >= 1 gives N x_i^alpha <= i + 1 on each row i, so the
    matrix is lower-triangular and its radius is its largest diagonal
    entry, found in O(N).  Otherwise the estimate is Gelfand's:
    ||M^k||_inf^(1/k) >= rho for every k, and a nonnegative M has
    ||M^k||_inf = max(M^k 1), so the minimum over k = 1, ..., power costs
    ``power`` products.  The iterate is rescaled by its maximum each step
    and the logarithms summed, so no power underflows.
    """
    if power < 1:
        raise DomainError(f"power must be >= 1, got {power}")
    t = m._upper_limits
    rows = np.arange(m.n_points)
    if np.all(t <= rows + 1):
        return float(np.max(np.clip(t - rows, 0.0, 1.0)) / m.n_points)
    v = np.ones(m.n_points)
    log_norm = 0.0
    best = math.inf
    # an alpha < 1 matrix has a positive last row, so each maximum is > 0
    for k in range(1, power + 1):
        v = m.matvec(v)
        top = float(np.max(v))
        v /= top
        log_norm += math.log(top)
        best = min(best, math.exp(log_norm / k))
    return best


def pq_norm_estimate(m, ctx, tol=1e-8, max_iter=100_000):
    """Nonlinear power method for the weighted (p, q) matrix norm.

    For a nonnegative kernel the iteration of duality maps converges to
    the norm; we stop when the Rayleigh-type ratio ||Mf||_q settles.
    """
    maps = (m.matvec, m.rmatvec)
    return _pq_power(maps, m.weights, ctx, np.ones(m.n_points), tol, max_iter)


def iterate_matrix_norm(m, n, ctx, tol=1e-8, max_iter=100_000):
    """(p, p)-norm estimate of the n-fold composition, applied matrix-free
    (the dense n-th power is never formed)."""
    if n < 1 or int(n) != n:
        raise DomainError(f"iterate order must be a positive integer, got {n}")
    maps = (_repeated(m.matvec, int(n)), _repeated(m.rmatvec, int(n)))
    return _pq_power(maps, m.weights, ctx, np.ones(m.n_points), tol, max_iter)


def _repeated(apply_fn, n):
    def apply_n(v):
        for _ in range(n):
            v = apply_fn(v)
        return v

    return apply_n
