"""The invariant suite's own numerics: its LAPACK-free 512-point
Gauss-Legendre rule, its SplitMix64 test vectors, a ``verify`` run that
wakes no idle BLAS threads and loads no numpy.random, and its grid and
seed ranges."""

import json
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

import volterra_alpha
from volterra_alpha import gram, verify
from volterra_alpha.cli import main
from volterra_alpha.errors import DomainError

NODES, WEIGHTS = verify._gauss_legendre(512)


def _mp_node_and_weight(x0, n=512):
    """The Gauss-Legendre node near ``x0`` and its weight, by Newton's
    method on the recurrence at 40 digits."""
    with mp.workdps(40):
        x = mp.mpf(x0)
        for _ in range(5):
            below, value = mp.mpf(1), x
            for j in range(1, n):
                below, value = value, ((2 * j + 1) * x * value - j * below) / (j + 1)
            slope = n * (x * value - below) / (x * x - 1)
            x -= value / slope
        return x, 2 / ((1 - x * x) * slope * slope)


def test_nodes_within_two_ulp_of_leggauss():
    reference, _ = np.polynomial.legendre.leggauss(512)
    assert np.all(np.abs(NODES - reference) <= 2 * np.spacing(np.abs(reference)))


def test_rule_is_symmetric_and_weights_sum_to_two():
    assert np.array_equal(NODES, -NODES[::-1])
    assert np.array_equal(WEIGHTS, WEIGHTS[::-1])
    assert abs(WEIGHTS.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("m", [0, 1, 2, 10, 50, 100, 150, 200])
def test_even_monomials_are_exact(m):
    assert abs(np.dot(WEIGHTS, NODES ** (2 * m)) - 2.0 / (2 * m + 1)) <= 1e-14


@pytest.mark.parametrize("i", [0, 1, 2, 3, 4, 255])
def test_weights_match_mpmath(i):
    # leggauss(512) is off by up to 1.1e-10 at the ends
    _, w = _mp_node_and_weight(NODES[i])
    assert abs(WEIGHTS[i] / w - 1) <= 1e-12


def test_verify_runs_no_eigensolver(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("verify called a LAPACK eigensolver")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refused)
    rows = verify.run_all(1024, 0)
    assert all(row.passed for row in rows)


def test_check_gram_scans_once_per_alpha(monkeypatch):
    calls = []
    scan = gram.find_zeros

    def counted(alpha, count):
        calls.append((alpha, count))
        return scan(alpha, count)

    monkeypatch.setattr(gram, "find_zeros", counted)
    assert all(row.passed for row in verify.check_gram(1024))
    assert len(calls) == len(set(calls)) == 6


def test_verify_cpu_time_stays_within_wall_time():
    # a dense eigensolve of size 512 wakes OpenBLAS's second thread, which
    # then spins after the call returns: ~0.14 s of CPU beyond the wall time.
    # Loading OpenBLAS at numpy's import spins its threads for up to ~0.1 s
    # too, so the timing starts after a pause.
    script = (
        "import time\n"
        "from volterra_alpha import verify\n"
        "time.sleep(0.5)\n"
        "wall, cpu = time.perf_counter(), time.process_time()\n"
        "verify.run_all(1024, 0)\n"
        "print(time.process_time() - cpu, time.perf_counter() - wall)\n"
    )
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=os.path.dirname(os.path.dirname(volterra_alpha.__file__)),
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    cpu, wall = map(float, run.stdout.split())
    assert cpu <= 1.05 * wall + 0.02


def test_a_grid_below_the_floor_is_refused(capsys):
    # at N = 512, eigen_residual_l2 reads 6.6e-3 against its 5e-3
    assert verify.MIN_GRID_N == 1024
    with pytest.raises(DomainError):
        verify.run_all(512, 0)
    assert main(["verify", "--grid-n", "512"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["type"] == "DomainError"


def test_stream_matches_published_splitmix64_outputs():
    # the reference outputs of Vigna's splitmix64.c from states 0 and 1234567
    assert verify._splitmix64(0, 3).tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert verify._splitmix64(1234567, 3).tolist() == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_top_seed_wraps_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = verify._splitmix64(2**64 - 1, 4)
    assert top.dtype == np.uint64 and len(set(top.tolist())) == 4


def test_verify_loads_no_numpy_random():
    script = (
        "import sys\n"
        "from volterra_alpha import verify\n"
        "verify.run_all(1024, 0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(volterra_alpha.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_a_seed_outside_the_stream_is_refused(seed, capsys):
    assert main(["verify", "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["type"] == "DomainError"
