"""Matrix ground truth for every analytic claim in the library.

The forward operator is discretized on the midpoint grid by exact
row-wise integration of the indicator kernel, which reproduces apply_T
bit-for-bit.  Singular values, eigenvalues, spectral radii and (p, q)
norms of the matrix then approximate the operator quantities to O(1/N),
independently of any closed form.

The machine inner product is the quadrature one, <f, g> = sum w_i f_i g_i,
so matrix singular values approximate L^2 singular values with no
N-dependent scale factor; the matrix adjoint is the weighted transpose.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ComplexPairError, DomainError, IterationLimitError
from .transform import LpContext, midpoints

_CTX22 = LpContext(2.0, 2.0)
# relative gap allowed between ||Mv|| and |lambda| ||v|| once an eigenpair
# settles: real pairs of the oracle matrices stay below 1e-6 (N = 2048,
# count 5, alpha 0.1 to 0.95), a rotation block gives 1
_EIGENVECTOR_GAP = 1e-3


@dataclass(frozen=True)
class OperatorMatrix:
    """Quadrature discretization of one family member."""

    alpha: float
    entries: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self):
        return self.entries.shape[0]


def discretize(alpha, n_points):
    """Exact-overlap discretization: entry (i, j) is the length of cell j
    covered by [0, x_i^alpha].  alpha = 0 yields the projector onto
    constants (all entries 1/N)."""
    if not alpha >= 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if n_points < 16 or int(n_points) != n_points:
        raise DomainError(f"n_points must be an integer >= 16, got {n_points}")
    n = int(n_points)
    x = midpoints(n)
    t = n * x**alpha
    entries = np.clip(t[:, None] - np.arange(n)[None, :], 0.0, 1.0) / n
    return OperatorMatrix(alpha=float(alpha), entries=entries, weights=np.full(n, 1.0 / n))


def adjoint_entries(m):
    """Matrix of the weighted-transpose adjoint, W^-1 M^T W."""
    w = m.weights
    return (m.entries * w[:, None]).T / w[None, :]


def _wnorm(v, w, p):
    return float(np.dot(w, np.abs(v) ** p) ** (1.0 / p))


def _power(step, v, tol, max_iter):
    """The one power-iteration loop, fed a Rayleigh step (eigenvalues) or
    a duality-map step ((p, q) norms).

    ``step(v)`` returns the current estimate and the next vector, or None
    for the vector once the image vanishes (the estimate is then 0).  Stops
    when two successive estimates agree to ``tol`` relative and returns
    ``(estimate, v)``; at ``max_iter`` raises ComplexPairError for a
    two-cycle, else IterationLimitError with the recent bracket.
    """
    recent = deque(maxlen=50)
    for _ in range(max_iter):
        est, nxt = step(v)
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


def _matrix_power_maps(mat, n=1):
    """Forward and adjoint actions of mat^n; the power is never formed."""

    def forward(v):
        for _ in range(n):
            v = mat @ v
        return v

    def adjoint(v):
        for _ in range(n):
            v = mat.T @ v
        return v

    return forward, adjoint


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


def matrix_norm_22(entries, weights, tol=1e-10, max_iter=100_000):
    """Weighted 2,2 norm of an arbitrary (possibly signed) matrix."""
    # deterministic start with no special symmetry
    start = 1.0 + 0.001 * np.sin(np.arange(entries.shape[0]))
    return _pq_power(_matrix_power_maps(entries), weights, _CTX22, start, tol, max_iter)


def top_eigenvalues(m, count, tol=1e-10, max_iter=100_000, dense_cutoff=600):
    """The ``count`` largest-magnitude real eigenvalues of the matrix.

    Dense solve below ``dense_cutoff``; deflated power iteration (with
    left eigenvectors, since the matrix is not symmetric) above it.
    Raises ComplexPairError when a dominant complex pair blocks either
    route.
    """
    if count < 1 or count > 8:
        raise DomainError(f"count must be in 1..8, got {count}")
    mat = m.entries
    n = m.n_points
    if n <= dense_cutoff:
        eigs = np.linalg.eigvals(mat)
        order = np.argsort(-np.abs(eigs))
        top = eigs[order[:count]]
        scale = np.abs(top[0]) + 1e-300
        if np.any(np.abs(top.imag) > 1e-8 * scale):
            raise ComplexPairError("dominant eigenvalues form complex pairs")
        return [float(v) for v in top.real]
    deflation = []

    def apply_right(v):
        g = mat @ v
        for lam, rv, lv, denom in deflation:
            g = g - lam * rv * (np.dot(lv, v) / denom)
        return g

    def apply_left(v):
        g = mat.T @ v
        for lam, rv, lv, denom in deflation:
            g = g - lam * lv * (np.dot(rv, v) / denom)
        return g

    out = []
    for _ in range(count):
        lam, rv = _dominant(apply_right, np.ones(n) / math.sqrt(n), tol, max_iter)
        _, lv = _dominant(apply_left, np.ones(n) / math.sqrt(n), tol, max_iter)
        out.append(lam)
        deflation.append((lam, rv, lv, float(np.dot(lv, rv))))
    return out


def top_gram_eigenvalues(m, count, tol=1e-12, max_iter=100_000):
    """Largest eigenvalues of the Gram operator (squared singular values),
    by power iteration with orthogonal deflation on the symmetrized matrix."""
    if count < 1 or count > 8:
        raise DomainError(f"count must be in 1..8, got {count}")
    w = m.weights
    # similarity W^(1/2) M W^(-1/2) makes the Gram operator symmetric
    sw = np.sqrt(w)
    sym = (sw[:, None] * m.entries) / sw[None, :]
    gram = sym.T @ sym
    n = m.n_points
    basis = []

    def apply_deflated(v):
        g = gram @ v
        for b in basis:
            g -= np.dot(b, g) * b
        return g

    out = []
    for _ in range(count):
        v = np.ones(n) / math.sqrt(n)
        for b in basis:
            v -= np.dot(b, v) * b
        lam, v = _dominant(apply_deflated, v, tol, max_iter)
        basis.append(v)
        out.append(lam)
    return out


def spectral_radius_estimate(m, power=1024):
    """Certified upper estimate of the spectral radius via Gelfand:
    ||M^k||_F^(1/k) >= rho for every k, so the minimum over the doubling
    sequence k = 2, 4, ..., power is itself an upper bound.

    Powers of a strongly non-normal matrix collapse fast; each squaring
    is pre-scaled up so the product stays representable, and the scan
    stops early if the next power underflows anyway (the bound so far
    then stands).
    """
    boost = 1e150
    mat = m.entries.copy()
    frob = float(np.linalg.norm(mat))
    if frob == 0.0:
        return 0.0
    log_scale = math.log(frob)
    mat /= frob
    k = 1
    best = math.exp(log_scale)  # k = 1 bound: the Frobenius norm itself
    while k < power:
        prod = mat @ mat
        frob = float(np.linalg.norm(prod))
        log_extra = 0.0
        if frob == 0.0:
            # the square of a frob-1 matrix underflowed: rescale and retry
            prod = (mat * boost) @ (mat * boost)
            frob = float(np.linalg.norm(prod))
            if frob == 0.0:
                break  # true power below 1e-600 * previous; bound so far stands
            log_extra = -2.0 * math.log(boost)
        k *= 2
        log_scale = 2.0 * log_scale + math.log(frob) + log_extra
        mat = prod / frob
        best = min(best, math.exp(log_scale / k))
    return best


def pq_norm_estimate(m, ctx, tol=1e-8, max_iter=100_000):
    """Nonlinear power method for the weighted (p, q) matrix norm.

    For a nonnegative kernel the iteration of duality maps converges to
    the norm; we stop when the Rayleigh-type ratio ||Mf||_q settles.
    """
    maps = _matrix_power_maps(m.entries)
    return _pq_power(maps, m.weights, ctx, np.ones(m.n_points), tol, max_iter)


def iterate_matrix_norm(m, n, ctx, tol=1e-8, max_iter=100_000):
    """(p, p)-norm estimate of the n-fold composition, applied matrix-free
    (the dense n-th power is never formed)."""
    if n < 1 or int(n) != n:
        raise DomainError(f"iterate order must be a positive integer, got {n}")
    maps = _matrix_power_maps(m.entries, int(n))
    return _pq_power(maps, m.weights, ctx, np.ones(m.n_points), tol, max_iter)
