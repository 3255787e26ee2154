"""The library's public surface: which parameters a caller may leave out,
and how many names the package exports.  A knob stays only where a caller
sets it; the rest are module constants."""

import inspect
import json
import types

import volterra_alpha
from volterra_alpha import (
    bounds,
    cli,
    errors,
    gram,
    kernels,
    oracle,
    point_spectrum,
    special,
    transform,
    verify,
)

# errors is left out: its optional constructor arguments are the partial
# results an exception carries, not settings
MODULES = (bounds, gram, kernels, oracle, point_spectrum, special, transform, cli, verify)


def _public_callables(module):
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if inspect.isfunction(member) and (attr == "__call__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


def test_defaulted_parameters():
    defaulted = {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}({param.name})"
        for module in MODULES
        for name, fn in _public_callables(module)
        for param in inspect.signature(fn).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert defaulted == {"cli.main(argv)"}


def test_exported_names():
    names = [
        name
        for name, value in vars(volterra_alpha).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(names) == 64


def test_error_payloads_are_the_ones_the_cli_writes():
    # a NumericsError carries a payload only where the CLI's error JSON
    # reports it
    numerics = [
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls) and issubclass(cls, errors.NumericsError)
    ]
    payloads = [
        (cls, param)
        for cls in numerics
        if "__init__" in vars(cls)
        for param in list(inspect.signature(cls.__init__).parameters)[2:]  # after the message
    ]
    assert {(cls.__name__, param) for cls, param in payloads} == {
        ("IterationLimitError", "estimate"),
        ("SearchHorizonError", "partial"),
    }
    for cls, param in payloads:
        value = [1.0] if param == "partial" else 1.0
        assert json.loads(cli._error_json(cls("message", **{param: value})))[param] == value
