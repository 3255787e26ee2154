"""The traced benchmark (``perfbench/run.py --trace 1``) patches library
functions by name; these tests fail when a refactor removes or reshapes
one of the names it reads."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import volterra_alpha
import volterra_alpha.cli  # noqa: F401  (binds every module the tracer reads)
from volterra_alpha import gram, kernels, oracle

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in TARGETS])
def test_target_exists(module, attr):
    assert callable(getattr(getattr(volterra_alpha, module), attr))


def test_argument_positions_read_by_the_tracer():
    # discretize's grid size is read as args[1] or n_points=
    assert list(inspect.signature(oracle.discretize).parameters)[:2] == ["alpha", "n_points"]
    # an eigenfunction's points are read as args[1] or x=
    assert "__call__" in vars(gram.TruncatedSeries)
    assert list(inspect.signature(gram.TruncatedSeries.__call__).parameters)[:2] == ["self", "x"]
    # g_recursive's distinct key is (spec.alpha, spec.n, z)
    assert list(inspect.signature(kernels.g_recursive).parameters)[:2] == ["spec", "z"]
    spec = kernels.make_kernel_spec(0.5, 3)
    assert (spec.alpha, spec.n) == (0.5, 3)


def test_installed_tracer_records_spans():
    script = (
        "import json, sys, volterra_alpha, volterra_alpha.cli as cli\n"
        "from tracer import Tracer\n"
        "t = Tracer('guard')\n"
        "t.install(volterra_alpha)\n"
        "for argv in (['spectrum', '--alpha', '0.5', '--count', '1', '--grid-n', '64'],\n"
        "             ['gram', '--alpha', '1', '--count', '1', '--grid-n', '64']):\n"
        "    assert cli.main(argv) == 0\n"
        "sys.stdout.write('\\n' + json.dumps(t.summary()))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    layers = json.loads(out.stdout.splitlines()[-1])
    assert layers["oracle.discretize"]["amount"] == 64 * 64 * 8
    assert layers["gram.eigenfunction"]["amount"] == 64
    assert layers["oracle.top_eigenvalues"]["calls"] == 1
