"""Seeded CLI command sequences for the benchmark workloads.

Each workload is a list of argv lists for ``volterra_alpha.cli.main``.
The alpha values come from ``random.Random`` seeded by (workload, seed,
repetition), so the same seed always gives the same commands and the
library sees only the generated argv.

The cost of a command can depend strongly on alpha (deflated power
iteration is ~3x slower at 0.95 than at 0.85), so draws are arranged to
keep the work per run nearly constant across seeds while still moving
every value: log-spaced alphas put one point in each equal log-stratum,
and the two ``spectrum`` alphas on each side of 1 are an antithetic pair.

``tiny`` shrinks grids and counts so the self-test runs quickly.  It
leaves ``verify`` alone: its kernel checks, which dominate, do not depend
on --grid-n.
"""

import math
import random

NAMES = ("verify", "spectra", "singular")


def _fmt(x):
    return format(x, ".6g")


def _antithetic(rng, lo, hi):
    """Two draws, one in each half of [lo, hi], mirrored about its middle."""
    offset = (hi - lo) / 2.0 * rng.random()
    return lo + offset, hi - offset


def _log_points(rng, lo, hi, k):
    """k points, each in its own equal log-stratum of [lo, hi], sharing one
    uniform offset (so each alpha is log-uniform)."""
    step = math.log(hi / lo) / k
    offset = rng.random()
    return [lo * math.exp(step * (i + offset)) for i in range(k)]


def _log_sweep(rng, lo, hi, k):
    """The CLI sweep 'log:a:b:k' through the points of ``_log_points``."""
    points = _log_points(rng, lo, hi, k)
    return f"log:{_fmt(points[0])}:{_fmt(points[-1])}:{k}"


def verify(rng, seed, tiny):
    return [["verify", "--grid-n", "1024", "--seed", str(seed)]]


def spectra(rng, seed, tiny):
    grid = ["--grid-n", "512"] if tiny else []
    n = "20" if tiny else "1500"
    below = _antithetic(rng, 0.85, 0.95)
    above = _antithetic(rng, 1.2, 3.0)
    # one alpha per spectrum/iterates command: a sweep would run two dense
    # solves at once on top of OpenBLAS's own threads
    return [
        # deflated power iteration, slow near alpha = 1
        *(["spectrum", "--alpha", _fmt(a), "--count", "5", *grid] for a in below),
        # quasi-nilpotent side: Gelfand doubling of dense matrix powers
        *(["spectrum", "--alpha", _fmt(a), *grid] for a in above),
        # growth_trend bounds plus oracle iterate norms, one alpha per regime
        *(
            ["iterates", "--alpha", _fmt(a), "--n", n, *grid]
            for a in (rng.uniform(0.3, 0.9), rng.uniform(1.1, 3.0))
        ),
        ["norm", "--alpha", _log_sweep(rng, 0.01, 100.0, 8)],
        [
            "sandwich",
            "--alpha",
            _log_sweep(rng, 0.01, 100.0, 9),
            "--p",
            _fmt(rng.uniform(1.2, 6.0)),
            "--q",
            _fmt(rng.uniform(1.2, 8.0)),
        ],
    ]


def singular(rng, seed, tiny):
    k = 2 if tiny else 4
    count = "2" if tiny else "4"
    zeros = "3" if tiny else "10"
    # gram and hzeros take one alpha per command: on the 2-thread pool of a
    # 2-vCPU VM their GIL-bound sweeps stalled together under host CPU steal
    # (solve time 5.6 s to 9.3 s across seeds); the cheap norm sweep keeps
    # the pool in use
    return [
        *(["gram", "--alpha", _fmt(a), "--count", count]
          for a in [*_log_points(rng, 0.05, 20.0, k), 1.0]),
        *(["hzeros", "--alpha", _fmt(a), "--count", zeros]
          for a in [*_log_points(rng, 0.05, 20.0, k), 1.0]),
        ["norm", "--alpha", _log_sweep(rng, 0.05, 20.0, 2 * k)],
        ["norm", "--alpha", "1"],
    ]


_BUILDERS = {"verify": verify, "spectra": spectra, "singular": singular}


def commands(name, seed, rep, tiny=False):
    """The argv lists of one repetition of workload ``name``."""
    rng = random.Random(f"{name}:{seed}:{rep}")
    return _BUILDERS[name](rng, seed, tiny)
