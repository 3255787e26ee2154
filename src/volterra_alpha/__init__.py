"""Norms, spectra and iterated kernels of the one-parameter operator
family ``f  ->  integral of f over [0, x^alpha]`` on L^p[0, 1].

Analytic formulas (exact norms, eigenvalues, kernel closed forms, growth
bounds) and an independent matrix-discretization oracle live side by side;
every computed quantity in one route is testable against the other.
"""

from .bounds import (
    NormSandwich,
    TrendReport,
    growth_trend,
    holder_modulus,
    iterate_norm_lower,
    iterate_norm_upper,
    log_iterate_norm_lower,
    log_iterate_norm_upper,
    norm_sandwich,
    preferred_upper_bound,
)
from .errors import (
    CancellationError,
    ComplexPairError,
    ConvergenceError,
    DomainError,
    IterationLimitError,
    NumericsError,
    SearchHorizonError,
)
from .gram import (
    GramEigenpair,
    TruncatedSeries,
    eval_H,
    eval_H_derivative,
    find_zeros,
    gram_eigenpair,
    deformation_gap,
    norm_22,
    operator_residual,
    small_alpha_diagnostic,
    small_alpha_expansion,
)
from .kernels import (
    KernelSpec,
    g_closed,
    g_recursive,
    g_step_relation_residual,
    g_value,
    kernel_K,
    kernel_lower_bound,
    make_kernel_spec,
    make_kernel_specs,
)
from .oracle import (
    OperatorMatrix,
    discretize,
    iterate_matrix_norm,
    largest_singular_value,
    matrix_norm_22,
    spectral_radius_estimate,
    top_eigenvalues,
    top_gram_eigenvalues,
)
from .point_spectrum import (
    PowerLogFunction,
    SpectrumDescription,
    eigen_residual,
    eigenfunction,
    eigenvalue,
    projection_residuals,
    spectrum_description,
)
from .special import (
    beta,
    euler_product,
    gaussian_binomial,
    log_gamma,
    q_pochhammer,
)
from .transform import (
    LpContext,
    apply_T,
    apply_T_adjoint,
    apply_T_iterate,
    inner,
    lp_norm,
    midpoints,
)

__version__ = "0.1.0"
