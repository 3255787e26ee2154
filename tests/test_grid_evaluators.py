"""The rule of the grid evaluators: a point gets the same bits alone, in
any array and in any order, and a 0-d argument gives a float."""

import numpy as np
import pytest

import volterra_alpha as va

# each evaluator at a spec whose grid takes more than one route: the closed
# form and the recursion (alpha = 3, n = 10), points on and off the kernel's
# support, Miller's recurrence and Hankel's expansion (h_8 at alpha = 3.6
# passes 100, so x = 2 sqrt(z) passes 20)
EVALUATORS = {
    "g_value": lambda x: va.g_value(va.make_kernel_spec(3.0, 10), x),
    "g_value at alpha = 1": lambda x: va.g_value(va.make_kernel_spec(1.0, 5), x),
    "kernel_K": lambda x: va.kernel_K(va.make_kernel_spec(0.8, 4), x, 0.02),
    "kernel_lower_bound": lambda x: va.kernel_lower_bound(va.make_kernel_spec(0.7, 5), x),
    "TruncatedSeries.__call__": lambda x: va.gram_eigenpair(3.6, 8).eigenfunction(x),
    "PowerLogFunction.__call__": lambda x: va.eigenfunction(0.5, 2)(x),
}

X = np.concatenate([np.linspace(0.0, 1.0, 201), np.random.default_rng(7).random(200)])


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_a_point_gets_the_same_bits_in_any_layout(name):
    call = EVALUATORS[name]
    whole = call(X)
    order = np.random.default_rng(3).permutation(X.size)
    assert np.array_equal(call(X[order]), whole[order])
    assert np.array_equal(call(X[::2]), whole[::2])  # a strided view
    assert np.array_equal(call(X[:400].reshape(20, 20)), whole[:400].reshape(20, 20))
    alone = [call(v) for v in X.tolist()]
    assert all(type(v) is float for v in alone)
    assert np.array_equal(alone, whole)
    assert type(call(np.array(0.3))) is float


def test_the_grids_take_more_than_one_route():
    spec = va.make_kernel_spec(3.0, 10)
    _, ok = va.kernels._closed(spec, X)
    assert ok.any() and not ok.all()
    support = va.kernel_K(va.make_kernel_spec(0.8, 4), X, 0.02)
    assert (support == 0.0).any() and (support > 0.0).any()
    pair = va.gram_eigenpair(3.6, 8)
    x = 2.0 * np.sqrt(pair.zero_h * X**pair.eigenfunction.power_step)
    assert (x < va.gram._SWITCH).any() and (x >= va.gram._SWITCH).any()
