"""The two argument rules of the public surface: a whole-number argument
(an order, index, count or grid size) and a point of [0, 1].  A bad
value raises DomainError at once, with no numpy warning, wherever it
enters the library."""

import inspect
import math
import time
import warnings

import numpy as np
import pytest

import volterra_alpha as va
from volterra_alpha.errors import DomainError
from volterra_alpha.special import log_gaussian_binomial
from volterra_alpha.transform import power_cells

CTX = va.LpContext(2.0, 2.0)
MATRIX = va.discretize(0.5, 64)
PAIR = va.gram_eigenpair(0.7, 0)
SPEC = va.make_kernel_spec(0.7, 3)

# (callable, parameter) -> (the call with that parameter set to v, least valid value)
INTEGER_ARGUMENTS = {
    ("growth_trend", "n_max"): (lambda v: va.growth_trend(0.5, 2.0, v), 10),
    ("iterate_norm_lower", "n"): (lambda v: va.iterate_norm_lower(0.5, v, 2.0), 2),
    ("iterate_norm_upper", "n"): (lambda v: va.iterate_norm_upper(0.5, v, 2.0), 1),
    ("log_iterate_norm_lower", "n"): (lambda v: va.log_iterate_norm_lower(0.5, v, 2.0), 2),
    ("log_iterate_norm_upper", "n"): (lambda v: va.log_iterate_norm_upper(0.5, v, 2.0), 1),
    ("find_zeros", "count"): (lambda v: va.find_zeros(1.0, v), 1),
    ("gram_eigenpair", "n"): (lambda v: va.gram_eigenpair(0.7, v), 0),
    ("operator_residual", "n_points"): (lambda v: va.operator_residual(PAIR, v), 2),
    ("make_kernel_spec", "n"): (lambda v: va.make_kernel_spec(0.5, v), 1),
    ("make_kernel_specs", "n_max"): (lambda v: va.make_kernel_specs(0.5, v), 1),
    ("OperatorMatrix", "n_points"): (lambda v: va.OperatorMatrix(0.5, v), 1),
    ("discretize", "n_points"): (lambda v: va.discretize(0.5, v), 16),
    ("iterate_matrix_norm", "n"): (lambda v: va.iterate_matrix_norm(MATRIX, v, CTX), 1),
    ("top_eigenvalues", "count"): (lambda v: va.top_eigenvalues(MATRIX, v), 1),
    ("top_gram_eigenvalues", "count"): (lambda v: va.top_gram_eigenvalues(MATRIX, v), 1),
    ("SpectrumDescription.eigenvalues", "count"): (
        lambda v: va.spectrum_description(0.5).eigenvalues(v),
        0,
    ),
    ("eigen_residual", "n"): (lambda v: va.eigen_residual(0.5, v, 64, 2.0), 0),
    ("eigen_residual", "grid"): (lambda v: va.eigen_residual(0.5, 1, v, 2.0), 2),
    ("eigenfunction", "n"): (lambda v: va.eigenfunction(0.5, v), 0),
    ("eigenvalue", "n"): (lambda v: va.eigenvalue(0.5, v), 0),
    ("projection_residuals", "m_max"): (
        lambda v: va.projection_residuals(0.5, v, np.sin, 64),
        0,
    ),
    ("projection_residuals", "grid"): (lambda v: va.projection_residuals(0.5, 2, np.sin, v), 1),
    ("gaussian_binomial", "m"): (lambda v: va.gaussian_binomial(v, 2, 0.5), 0),
    ("gaussian_binomial", "k"): (lambda v: va.gaussian_binomial(5, v, 0.5), 0),
    ("log_gaussian_binomial", "m"): (lambda v: log_gaussian_binomial(v, 0, 0.5), 0),
    ("log_gaussian_binomial", "k"): (lambda v: log_gaussian_binomial(5, v, 0.5), 0),
    ("q_pochhammer", "k"): (lambda v: va.q_pochhammer(0.5, 0.5, v), 0),
    ("apply_T_iterate", "n"): (lambda v: va.apply_T_iterate(0.5, np.ones(8), v), 1),
    ("midpoints", "n"): (lambda v: va.midpoints(v), 1),
    ("power_cells", "n"): (lambda v: power_cells(0.5, v), 1),
}

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

# parameter names that hold a whole number wherever an exported callable takes them
INTEGER_NAMES = {"n", "n_max", "count", "n_points", "grid", "m_max", "k"}


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
    call, least = INTEGER_ARGUMENTS[key]
    _refused_at_once(call, least - 1 if bad == "least - 1" else float(bad))


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, -math.inf, math.inf])
@pytest.mark.parametrize("name", list(POINT_ARGUMENTS))
def test_point_outside_the_unit_interval_is_refused(name, bad):
    _refused_at_once(POINT_ARGUMENTS[name], bad)


@pytest.mark.parametrize("key", list(INTEGER_ARGUMENTS), ids="{0[0]}({0[1]})".format)
def test_integer_argument_takes_its_least_value(key):
    call, least = INTEGER_ARGUMENTS[key]
    call(least)
    call(float(least))


def test_every_exported_integer_parameter_is_in_the_table():
    found = set()
    for name, value in vars(va).items():
        # KernelSpec is a record built by make_kernel_spec(s); an exception
        # takes a message and the partial result it carries
        if name.startswith("_") or not callable(value) or value is va.KernelSpec:
            continue
        if inspect.isclass(value) and issubclass(value, Exception):
            continue
        members = [(name, value)]
        if inspect.isclass(value):
            members += [
                (f"{name}.{attr}", member)
                for attr, member in vars(value).items()
                if inspect.isfunction(member) and not attr.startswith("_")
            ]
        for label, fn in members:
            params = inspect.signature(fn).parameters
            found |= {(label, p) for p in params if p in INTEGER_NAMES}
    assert found <= set(INTEGER_ARGUMENTS)
