"""The three argument rules of the public surface: a whole-number
argument (an order, index, count or grid size), a point of [0, 1] and a
real parameter on an open interval (alpha, an exponent, a q-base, a
tolerance).  A bad value raises DomainError at once, with no numpy
warning, wherever it enters the library."""

import inspect
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volterra_alpha as va
from volterra_alpha import verify
from volterra_alpha.errors import DomainError
from volterra_alpha.gram import MAX_ZEROS
from volterra_alpha.kernels import MAX_KERNEL_ORDER
from volterra_alpha.special import log_gaussian_binomial
from volterra_alpha.transform import MAX_GRID_SIZE, power_cells

CTX = va.LpContext(2.0, 2.0)
MATRIX = va.discretize(0.5, 64)
PAIR = va.gram_eigenpair(0.7, 0)
SPEC = va.make_kernel_spec(0.7, 3)

GRID, ORDER = MAX_GRID_SIZE, MAX_KERNEL_ORDER

# (callable, parameter) -> (the call with that parameter set to v, least
# valid value, the cap it passes through or None)
INTEGER_ARGUMENTS = {
    ("growth_trend", "n_max"): (lambda v: va.growth_trend(0.5, 2.0, v), 10, ORDER),
    ("iterate_norm_lower", "n"): (lambda v: va.iterate_norm_lower(0.5, v, 2.0), 2, ORDER),
    ("iterate_norm_upper", "n"): (lambda v: va.iterate_norm_upper(0.5, v, 2.0), 1, ORDER),
    ("log_iterate_norm_lower", "n"): (lambda v: va.log_iterate_norm_lower(0.5, v, 2.0), 2, ORDER),
    ("log_iterate_norm_upper", "n"): (lambda v: va.log_iterate_norm_upper(0.5, v, 2.0), 1, ORDER),
    ("find_zeros", "count"): (lambda v: va.find_zeros(1.0, v), 1, MAX_ZEROS),
    ("gram_eigenpair", "n"): (lambda v: va.gram_eigenpair(0.7, v), 0, MAX_ZEROS - 1),
    ("operator_residual", "n_points"): (lambda v: va.operator_residual(PAIR, v), 2, GRID),
    ("make_kernel_spec", "n"): (lambda v: va.make_kernel_spec(0.5, v), 1, ORDER),
    ("make_kernel_specs", "n_max"): (lambda v: va.make_kernel_specs(0.5, v), 1, ORDER),
    ("OperatorMatrix", "n_points"): (lambda v: va.OperatorMatrix(0.5, v), 1, GRID),
    ("discretize", "n_points"): (lambda v: va.discretize(0.5, v), 16, GRID),
    ("iterate_matrix_norm", "n"): (lambda v: va.iterate_matrix_norm(MATRIX, v, CTX), 1, ORDER),
    ("top_eigenvalues", "count"): (lambda v: va.top_eigenvalues(MATRIX, v), 1, 8),
    ("top_gram_eigenvalues", "count"): (lambda v: va.top_gram_eigenvalues(MATRIX, v), 1, 8),
    ("SpectrumDescription.eigenvalues", "count"): (
        lambda v: va.spectrum_description(0.5).eigenvalues(v),
        0,
        None,
    ),
    ("eigen_residual", "n"): (lambda v: va.eigen_residual(0.5, v, 64, 2.0), 0, None),
    ("eigen_residual", "grid"): (lambda v: va.eigen_residual(0.5, 1, v, 2.0), 2, GRID),
    ("eigenfunction", "n"): (lambda v: va.eigenfunction(0.5, v), 0, None),
    ("eigenvalue", "n"): (lambda v: va.eigenvalue(0.5, v), 0, None),
    ("projection_residuals", "m_max"): (
        lambda v: va.projection_residuals(0.5, v, np.sin, 64),
        0,
        None,
    ),
    ("projection_residuals", "grid"): (
        lambda v: va.projection_residuals(0.5, 2, np.sin, v),
        1,
        GRID,
    ),
    ("gaussian_binomial", "m"): (lambda v: va.gaussian_binomial(v, 2, 0.5), 0, None),
    ("gaussian_binomial", "k"): (lambda v: va.gaussian_binomial(5, v, 0.5), 0, None),
    ("log_gaussian_binomial", "m"): (lambda v: log_gaussian_binomial(v, 0, 0.5), 0, None),
    ("log_gaussian_binomial", "k"): (lambda v: log_gaussian_binomial(5, v, 0.5), 0, None),
    ("q_pochhammer", "k"): (lambda v: va.q_pochhammer(0.5, 0.5, v), 0, None),
    ("apply_T_iterate", "n"): (lambda v: va.apply_T_iterate(0.5, np.ones(8), v), 1, ORDER),
    ("midpoints", "n"): (lambda v: va.midpoints(v), 1, GRID),
    ("power_cells", "n"): (lambda v: power_cells(0.5, v), 1, GRID),
    ("run_all", "grid_n"): (lambda v: verify.run_all(v, 0), verify.MIN_GRID_N, None),
    # the test vectors' SplitMix64 stream takes a uint64 seed
    ("run_all", "seed"): (lambda v: verify.run_all(1024, v), 0, 2**64 - 1),
}
CAPPED = [key for key, (_, _, most) in INTEGER_ARGUMENTS.items() if most is not None]

INF = math.inf
# (callable, parameter) -> (the call with that parameter set to v, and the
# open interval the parameter must lie in)
REAL_ARGUMENTS = {
    ("make_kernel_spec", "alpha"): (lambda v: va.make_kernel_spec(v, 3), 0.0, INF),
    ("make_kernel_specs", "alpha"): (lambda v: va.make_kernel_specs(v, 3), 0.0, INF),
    ("norm_sandwich", "alpha"): (lambda v: va.norm_sandwich(v, CTX), 0.0, INF),
    ("gram_eigenpair", "alpha"): (lambda v: va.gram_eigenpair(v, 0), 0.0, INF),
    ("norm_22", "alpha"): (lambda v: va.norm_22(v), 0.0, INF),
    ("eigenvalue", "alpha"): (lambda v: va.eigenvalue(v, 1), 0.0, 1.0),
    ("eigenfunction", "alpha"): (lambda v: va.eigenfunction(v, 1), 0.0, 1.0),
    ("eigen_residual", "alpha"): (lambda v: va.eigen_residual(v, 1, 64, 2.0), 0.0, 1.0),
    ("eigen_residual", "p"): (lambda v: va.eigen_residual(0.5, 1, 64, v), 1.0, INF),
    ("projection_residuals", "alpha"): (
        lambda v: va.projection_residuals(v, 2, np.sin, 64),
        0.0,
        1.0,
    ),
    ("growth_trend", "alpha"): (lambda v: va.growth_trend(v, 2.0, 10), 0.0, INF),
    ("growth_trend", "p"): (lambda v: va.growth_trend(0.5, v, 10), 1.0, INF),
    ("iterate_norm_lower", "alpha"): (lambda v: va.iterate_norm_lower(v, 3, 2.0), 0.0, INF),
    ("iterate_norm_lower", "p"): (lambda v: va.iterate_norm_lower(0.5, 3, v), 1.0, INF),
    ("iterate_norm_upper", "alpha"): (lambda v: va.iterate_norm_upper(v, 3, 2.0), 0.0, INF),
    ("iterate_norm_upper", "p"): (lambda v: va.iterate_norm_upper(0.5, 3, v), 1.0, INF),
    ("log_iterate_norm_lower", "alpha"): (
        lambda v: va.log_iterate_norm_lower(v, 3, 2.0),
        0.0,
        INF,
    ),
    ("log_iterate_norm_lower", "p"): (lambda v: va.log_iterate_norm_lower(0.5, 3, v), 1.0, INF),
    ("log_iterate_norm_upper", "alpha"): (
        lambda v: va.log_iterate_norm_upper(v, 3, 2.0),
        0.0,
        INF,
    ),
    ("log_iterate_norm_upper", "p"): (lambda v: va.log_iterate_norm_upper(0.5, 3, v), 1.0, INF),
    ("lp_norm", "p"): (lambda v: va.lp_norm(np.ones(8), v), 1.0, INF),
    ("LpContext", "p"): (lambda v: va.LpContext(v, 2.0), 1.0, INF),
    ("LpContext", "q"): (lambda v: va.LpContext(2.0, v), 1.0, INF),
    ("gaussian_binomial", "q"): (lambda v: va.gaussian_binomial(5, 2, v), 0.0, INF),
    ("log_gaussian_binomial", "q"): (lambda v: log_gaussian_binomial(5, 2, v), 0.0, INF),
    ("q_pochhammer", "q"): (lambda v: va.q_pochhammer(0.5, v, 3), 0.0, INF),
    ("euler_product", "q"): (lambda v: va.euler_product(0.5, v), 0.0, 1.0),
    ("beta", "a"): (lambda v: va.beta(v, 2.0), 0.0, INF),
    ("beta", "b"): (lambda v: va.beta(2.0, v), 0.0, INF),
}

# (callable, parameter) -> the interval its own check keeps, because it is
# closed or contains inf
EXPLICIT_INTERVALS = {
    # alpha = 0 is the projector onto constants and alpha = inf the zero map;
    # power_cells is their one check
    ("apply_T", "alpha"): "[0, inf]",
    ("apply_T_iterate", "alpha"): "[0, inf]",
    ("discretize", "alpha"): "[0, inf]",
    ("OperatorMatrix", "alpha"): "[0, inf]",
    # alpha = inf is a member too: the zero map's adjoint, a quasi-nilpotent
    # spectrum and the limiting series of H
    ("apply_T_adjoint", "alpha"): "(0, inf]",
    ("spectrum_description", "alpha"): "(0, inf]",
    ("eval_H", "alpha"): "(0, inf]",
    ("eval_H_derivative", "alpha"): "(0, inf]",
    ("find_zeros", "alpha"): "(0, inf]",
    # two equal exponents give modulus 0
    ("holder_modulus", "alpha"): "[0, inf)",
    ("holder_modulus", "beta_"): "[0, inf)",
    # stated windows
    ("small_alpha_expansion", "alpha"): "(0, 0.1]",
    ("small_alpha_diagnostic", "alpha"): "[1e-7, inf)",
    ("deformation_gap", "eps"): "(0, 1/8]",
}

# records that a checked call builds; their fields are not arguments
RECORDS = (va.KernelSpec, va.TruncatedSeries, va.SpectrumDescription)

# callable -> the call at one point of its [0, 1] domain
POINT_ARGUMENTS = {
    "g_value": lambda x: va.g_value(SPEC, x),
    "g_closed": lambda x: va.g_closed(SPEC, x),
    "g_recursive": lambda x: va.g_recursive(SPEC, x),
    "g_step_relation_residual": lambda x: va.g_step_relation_residual(SPEC, x),
    "kernel_K(x)": lambda x: va.kernel_K(SPEC, x, 0.5),
    "kernel_K(y)": lambda y: va.kernel_K(SPEC, 0.5, y),
    "kernel_lower_bound": lambda z: va.kernel_lower_bound(SPEC, z),
    "TruncatedSeries.__call__": lambda x: PAIR.eigenfunction(x),
    "PowerLogFunction.__call__": lambda x: va.eigenfunction(0.5, 2)(x),
}
# those of them that take an array of points as well
ARRAY_POINT_ARGUMENTS = (
    "g_value",
    "kernel_K(x)",
    "kernel_lower_bound",
    "TruncatedSeries.__call__",
    "PowerLogFunction.__call__",
)

# parameter names that hold a whole number wherever an exported callable takes them
INTEGER_NAMES = {"n", "n_max", "count", "n_points", "grid", "m_max", "k"}
# parameter names that hold a real on an interval wherever one does
REAL_NAMES = {"alpha", "beta_", "p", "q", "tol", "eps"}


def _refused_at_once(call, value):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(value)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "2.5", "-1", "least - 1"])
@pytest.mark.parametrize("key", list(INTEGER_ARGUMENTS), ids="{0[0]}({0[1]})".format)
def test_integer_argument_is_refused(key, bad):
    call, least, _ = INTEGER_ARGUMENTS[key]
    _refused_at_once(call, least - 1 if bad == "least - 1" else float(bad))


@pytest.mark.parametrize("bad", ["most + 1", "1e300"])
@pytest.mark.parametrize("key", CAPPED, ids="{0[0]}({0[1]})".format)
def test_integer_argument_above_its_cap_is_refused(key, bad):
    # the cap is checked before any allocation or loop
    call, _, most = INTEGER_ARGUMENTS[key]
    _refused_at_once(call, most + 1 if bad == "most + 1" else float(bad))


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, -math.inf, math.inf])
@pytest.mark.parametrize("name", list(POINT_ARGUMENTS))
def test_point_outside_the_unit_interval_is_refused(name, bad):
    _refused_at_once(POINT_ARGUMENTS[name], bad)
    if name in ARRAY_POINT_ARGUMENTS:
        _refused_at_once(POINT_ARGUMENTS[name], np.array([0.5, bad, 0.25]))


@pytest.mark.parametrize("name", [n for n in POINT_ARGUMENTS if n not in ARRAY_POINT_ARGUMENTS])
def test_a_one_point_argument_refuses_an_array(name):
    # the array must not reach float() or a truth test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"argument [xyz] .*shape \(2,\)"):
            POINT_ARGUMENTS[name](np.array([0.3, 0.4]))


@pytest.mark.parametrize("key", list(INTEGER_ARGUMENTS), ids="{0[0]}({0[1]})".format)
def test_integer_argument_takes_its_least_value(key):
    call, least, _ = INTEGER_ARGUMENTS[key]
    call(least)
    call(float(least))


def _exported_parameters(names):
    """(label, parameter) for each parameter in ``names`` of an exported
    callable or public method.  A record's constructor takes its fields,
    not arguments, but its methods are read; an exception takes a message
    and the partial result it carries."""
    found = set()
    for name, value in vars(va).items():
        if name.startswith("_") or not callable(value):
            continue
        if inspect.isclass(value) and issubclass(value, Exception):
            continue
        members = [] if value in RECORDS else [(name, value)]
        if inspect.isclass(value):
            members += [
                (f"{name}.{attr}", member)
                for attr, member in vars(value).items()
                if inspect.isfunction(member) and not attr.startswith("_")
            ]
        for label, fn in members:
            params = inspect.signature(fn).parameters
            found |= {(label, p) for p in params if p in names}
    return found


def test_every_exported_integer_parameter_is_in_the_table():
    assert _exported_parameters(INTEGER_NAMES) <= set(INTEGER_ARGUMENTS)


def test_every_exported_real_parameter_is_in_a_table():
    assert not set(REAL_ARGUMENTS) & set(EXPLICIT_INTERVALS)
    found = _exported_parameters(REAL_NAMES)
    assert found <= set(REAL_ARGUMENTS) | set(EXPLICIT_INTERVALS)


def _outside(low, high):
    """nan, +-inf, both ends, each end one ulp either way, +-5e-324 and
    +-1e308: those of them outside the open interval (low, high)."""
    ends = [low, high]
    values = [math.nan, INF, -INF, 5e-324, -5e-324, 1e308, -1e308, *ends]
    values += [math.nextafter(end, way) for end in ends for way in (-INF, INF)]
    return [v for v in values if not low < v < high]


@pytest.mark.parametrize("key", list(REAL_ARGUMENTS), ids="{0[0]}({0[1]})".format)
def test_real_argument_takes_a_value_inside(key):
    call, low, high = REAL_ARGUMENTS[key]
    call(1e-8 if key[1] == "tol" else 2.0 if low == 1.0 else 0.5)


@pytest.mark.parametrize("key", list(REAL_ARGUMENTS), ids="{0[0]}({0[1]})".format)
def test_real_argument_edges_are_refused(key):
    call, low, high = REAL_ARGUMENTS[key]
    for value in _outside(low, high):
        _refused_at_once(call, value)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("key", list(REAL_ARGUMENTS), ids="{0[0]}({0[1]})".format)
def test_real_argument_outside_its_interval_is_refused(key, data):
    call, low, high = REAL_ARGUMENTS[key]
    outside = st.floats().filter(lambda v: not low < v < high)
    _refused_at_once(call, data.draw(st.one_of(st.sampled_from(_outside(low, high)), outside)))


# the forward maps' alpha lies in [0, inf]: 0 is the projector onto
# constants, inf the zero map
FORWARD_MAPS = {
    "OperatorMatrix": lambda a: va.OperatorMatrix(a, 64),
    "discretize": lambda a: va.discretize(a, 64),
    "apply_T": lambda a: va.apply_T(a, np.ones(8)),
    "apply_T_iterate": lambda a: va.apply_T_iterate(a, np.ones(8), 2),
}


@pytest.mark.parametrize("alpha", [math.nan, -1.0, -5e-324, -INF])
@pytest.mark.parametrize("name", list(FORWARD_MAPS))
def test_forward_alpha_is_refused(name, alpha):
    # OperatorMatrix(-1, 64) used to build a matrix, and nan to be cast to
    # an int with a RuntimeWarning
    _refused_at_once(FORWARD_MAPS[name], alpha)


@pytest.mark.parametrize("name", list(FORWARD_MAPS))
def test_forward_alpha_takes_both_ends(name):
    FORWARD_MAPS[name](0.0)
    FORWARD_MAPS[name](INF)
