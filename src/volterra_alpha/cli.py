"""Batch command-line surface emitting machine-readable tables.

Every command maps onto library calls and prints one flat table, CSV or
JSON, with floats at 17 significant digits so output is byte-stable and
round-trips exactly.  Each command accepts only the flags it reads, plus
``--format`` and ``--out``; sweeps over alpha run one value at a time,
in input order.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bounds, gram, kernels, oracle, point_spectrum, verify
from .errors import DomainError, NumericsError, _integer, _real
from .transform import LpContext


def parse_alpha_spec(text):
    """One value ('0.5'), a linear sweep ('0.1:2:5'), or a log sweep
    ('log:0.01:100:5'); 'inf' is accepted where meaningful."""
    if text.startswith("log:"):
        start, stop, count = text[4:].split(":")
        count = int(count)
        if count < 1 or not (float(start) > 0 and float(stop) > 0):
            raise ValueError("log sweep needs positive endpoints and count >= 1")
        return list(np.geomspace(float(start), float(stop), count))
    if ":" in text:
        start, stop, count = text.split(":")
        count = int(count)
        if count < 1:
            raise ValueError("sweep count must be >= 1")
        return list(np.linspace(float(start), float(stop), count))
    return [float(text)]


def _cell(value, fmt):
    """One table cell.  Floats carry 17 significant digits; in JSON NaN is
    null and +-inf is +-1e999, a number that json.loads reads as +-inf."""
    if value is None:
        return "null" if fmt == "json" else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if fmt == "json" and not math.isfinite(value):
            return "null" if math.isnan(value) else ("1e999" if value > 0 else "-1e999")
        return f"{value:.17g}"
    if fmt == "csv" or isinstance(value, (int, np.integer)):
        return str(value)
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_table(rows, columns, fmt, stream):
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(row.get(c), fmt) for c in columns) for row in rows]
        stream.write("\n".join(lines) + "\n")
        return
    chunks = [
        "{" + ", ".join(f'"{c}": {_cell(row.get(c), fmt)}' for c in columns) + "}"
        for row in rows
    ]
    stream.write("[\n" + ",\n".join(chunks) + "\n]\n")


# Each handler maps the parsed arguments and one alpha of the sweep
# (None for verify) to the rows of the table, as tuples in column order.


def _norm(args, alpha):
    sw = bounds.norm_sandwich(alpha, LpContext(2.0, 2.0))
    return [(alpha, gram.norm_22(alpha), sw.lower, sw.upper)]


def _sandwich(args, alpha):
    ctx = LpContext(args.p, args.q)
    sw = bounds.norm_sandwich(alpha, ctx)
    preferred = bounds.preferred_upper_bound(ctx)
    return [(alpha, args.p, args.q, sw.lower, sw.upper_holder, sw.upper_beta, sw.upper, preferred)]


def _spectrum(args, alpha):
    m = oracle.discretize(alpha, args.grid_n)
    desc = point_spectrum.spectrum_description(alpha)
    if not desc.has_point_spectrum:
        rho = oracle.spectral_radius_estimate(m)
        return [(alpha, -1, 0.0, rho, rho, 0.0)]
    estimates = oracle.top_eigenvalues(m, args.count, tol=args.tol)
    return [
        (alpha, n, lam, est, abs(lam - est), desc.spectral_radius)
        for n, (lam, est) in enumerate(zip(desc.eigenvalues(args.count), estimates))
    ]


def _gram(args, alpha):
    rows = []
    for n in range(args.count):
        pair = gram.gram_eigenpair(alpha, n)
        residual = gram.operator_residual(pair, args.grid_n)
        rows.append((alpha, n, pair.zero_h, pair.eigenvalue, residual))
    return rows


def _kernel(args, alpha):
    spec = kernels.make_kernel_spec(alpha, args.n)
    mesh = np.linspace(0.0, 1.0, 9)
    points = mesh.tolist()
    # one call per y over every x; row i of the stack holds K(x_i, y_j)
    stack = np.column_stack([kernels.kernel_K(spec, mesh, y) for y in points]).tolist()
    return [(alpha, args.n, x, y, v) for x, row in zip(points, stack) for y, v in zip(points, row)]


def _hzeros(args, alpha):
    return [(alpha, n, z) for n, z in enumerate(gram.find_zeros(alpha, args.count))]


def _iterates(args, alpha):
    ctx = LpContext(args.p, args.p)
    report = bounds.growth_trend(alpha, args.p, max(args.n, 10))
    m = oracle.discretize(alpha, args.grid_n)
    rows = []
    for n, lower, upper, scale in zip(report.ns, report.log_lower, report.log_upper, report.scale):
        n = int(n)
        est = None
        if n <= 6:
            norm = oracle.iterate_matrix_norm(m, n, ctx, tol=args.tol)
            est = math.log(norm) if norm > 0.0 else None  # null: M^n vanishes
        lower, upper = float(lower), float(upper)
        rows.append((alpha, n, lower, upper, est, lower / scale, upper / scale, report.target))
    return rows


def _verify(args, alpha):
    report = verify.run_all(grid_n=args.grid_n, seed=args.seed)
    return [(r.invariant, r.residual, r.tolerance, r.passed) for r in report]


# command -> (handler, the flags it reads, the columns of its table)
_COMMANDS = {
    "norm": (_norm, ("alpha",), ["alpha", "norm22", "lower", "upper"]),
    "sandwich": (
        _sandwich,
        ("alpha", "p", "q"),
        ["alpha", "p", "q", "lower", "upper_holder", "upper_beta", "upper", "preferred"],
    ),
    "spectrum": (
        _spectrum,
        ("alpha", "count", "grid_n", "tol"),
        ["alpha", "index", "eigenvalue", "oracle", "abs_err", "spectral_radius"],
    ),
    "gram": (
        _gram,
        ("alpha", "count", "grid_n"),
        ["alpha", "index", "zero_h", "eigenvalue", "residual"],
    ),
    "kernel": (_kernel, ("alpha", "n"), ["alpha", "n", "x", "y", "value"]),
    "hzeros": (_hzeros, ("alpha", "count"), ["alpha", "index", "zero"]),
    "iterates": (
        _iterates,
        ("alpha", "p", "n", "grid_n", "tol"),
        [
            "alpha",
            "n",
            "log_lower",
            "log_upper",
            "oracle_log",
            "normalized_lower",
            "normalized_upper",
            "target",
        ],
    ),
    "verify": (_verify, ("grid_n", "seed"), ["invariant", "residual", "tolerance", "passed"]),
}

# flag -> its argparse options
_FLAGS = {
    "alpha": dict(
        type=parse_alpha_spec,
        default=[1.0],
        help="value, 'start:stop:count', or 'log:start:stop:count'",
    ),
    "p": dict(type=float, default=2.0),
    "q": dict(type=float, default=2.0),
    "n": dict(type=int, default=3),
    "count": dict(type=int, default=5),
    "grid_n": dict(type=int, default=2048),
    "tol": dict(type=float, default=1e-8),
    "seed": dict(type=int, default=0),
}

# flag -> the library's rule for its value, checked before any work
_RULES = {
    "n": lambda v: _integer(v, 1, "--n"),
    "count": lambda v: _integer(v, 1, "--count"),
    "grid_n": lambda v: _integer(v, 16, "--grid-n"),
    "tol": lambda v: _real(v, 0.0, 1.0, "--tol"),
}


def _error_json(exc):
    """One JSON object: the message, the error type and whatever partial
    result the error carries (non-finite numbers become null)."""

    def number(v):
        v = float(v)
        return v if math.isfinite(v) else None

    out = {"error": str(exc), "type": type(exc).__name__}
    for key in ("estimate", "partial", "achieved_error"):
        value = getattr(exc, key, None)
        if value is not None:
            out[key] = [number(v) for v in value] if key == "partial" else number(value)
    return json.dumps(out)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="volterra-alpha",
        description="Norms, spectra and kernels of the integral-operator "
        "family with power-law upper limit, each cross-checked against a "
        "matrix discretization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **_FLAGS[flag])
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=str, default=None)
    sub.choices["verify"].set_defaults(grid_n=1024)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, _, columns = _COMMANDS[args.command]
    try:
        for flag, rule in _RULES.items():
            if hasattr(args, flag):
                rule(getattr(args, flag))
        rows = [
            dict(zip(columns, values))
            for alpha in getattr(args, "alpha", [None])
            for values in handler(args, alpha)
        ]
    except (DomainError, NumericsError, ValueError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            emit_table(rows, columns, args.format, fh)
    else:
        emit_table(rows, columns, args.format, sys.stdout)
    # verify exits 1 when an invariant fails
    return 0 if all(row.get("passed", True) for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
