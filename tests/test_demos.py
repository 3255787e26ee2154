"""Each demo script runs to completion with warnings as errors and prints
its tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import volterra_alpha

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(volterra_alpha.__file__)))
    out = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
