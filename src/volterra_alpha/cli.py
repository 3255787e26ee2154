"""Batch command-line surface emitting machine-readable tables.

Every command maps onto library calls and prints one flat table, CSV or
JSON, with floats at 17 significant digits so output is byte-stable and
round-trips exactly.  Sweeps over alpha run one value at a time, in
input order.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds, gram, kernels, oracle, point_spectrum, verify
from .errors import DomainError, NumericsError
from .transform import LpContext, midpoints

COMMANDS = ("norm", "sandwich", "spectrum", "gram", "kernel", "hzeros", "iterates", "verify")


@dataclass(frozen=True)
class RunConfig:
    """One parsed CLI invocation; every handler consumes this."""

    command: str
    alphas: tuple
    p: float
    q: float
    n: int
    count: int
    grid_n: int
    tol: float
    fmt: str
    out: str
    seed: int

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command}")
        if len(self.alphas) < 1:
            raise DomainError("alpha sweep must expand to at least one value")
        if self.n < 1 or self.count < 1 or self.grid_n < 16:
            raise DomainError("--n and --count must be >= 1, --grid-n >= 16")
        if not self.tol > 0:
            raise DomainError("--tol must be positive")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"unknown format {self.fmt}")


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


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_table(rows, columns, fmt, stream):
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_format_value(row.get(c)) for c in columns) + "\n")
        return
    # JSON: hand-rolled so floats carry 17 significant digits
    chunks = []
    for row in rows:
        fields = []
        for c in columns:
            v = row.get(c)
            if v is None:
                rendered = "null"
            elif isinstance(v, bool):
                rendered = "true" if v else "false"
            elif isinstance(v, (int, np.integer)):
                rendered = str(int(v))
            elif isinstance(v, float):
                rendered = "null" if math.isnan(v) else f"{v:.17g}"
            else:
                rendered = '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'
            fields.append(f'"{c}": {rendered}')
        chunks.append("{" + ", ".join(fields) + "}")
    stream.write("[\n" + ",\n".join(chunks) + "\n]\n")


def _flat_sweep(fn, config):
    return [row for a in config.alphas for row in fn(a)]


def cmd_norm(config):
    ctx = LpContext(2.0, 2.0)

    def one(alpha):
        sw = bounds.norm_sandwich(alpha, ctx)
        return {
            "alpha": alpha,
            "norm22": gram.norm_22(alpha),
            "lower": sw.lower,
            "upper": sw.upper,
        }

    return [one(a) for a in config.alphas], ["alpha", "norm22", "lower", "upper"]


def cmd_sandwich(config):
    ctx = LpContext(config.p, config.q)

    def one(alpha):
        sw = bounds.norm_sandwich(alpha, ctx)
        return {
            "alpha": alpha,
            "p": config.p,
            "q": config.q,
            "lower": sw.lower,
            "upper_holder": sw.upper_holder,
            "upper_beta": sw.upper_beta,
            "upper": sw.upper,
            "preferred": bounds.preferred_upper_bound(ctx),
        }

    columns = ["alpha", "p", "q", "lower", "upper_holder", "upper_beta", "upper", "preferred"]
    return [one(a) for a in config.alphas], columns


def cmd_spectrum(config):
    def one(alpha):
        m = oracle.discretize(alpha, config.grid_n)
        desc = point_spectrum.spectrum_description(alpha)
        out = []
        if desc.has_point_spectrum:
            estimates = oracle.top_eigenvalues(m, config.count, tol=config.tol)
            for n, (lam, est) in enumerate(zip(desc.eigenvalues(config.count), estimates)):
                out.append(
                    {
                        "alpha": alpha,
                        "index": n,
                        "eigenvalue": lam,
                        "oracle": est,
                        "abs_err": abs(lam - est),
                        "spectral_radius": desc.spectral_radius,
                    }
                )
        else:
            rho = oracle.spectral_radius_estimate(m)
            out.append(
                {
                    "alpha": alpha,
                    "index": -1,
                    "eigenvalue": 0.0,
                    "oracle": rho,
                    "abs_err": rho,
                    "spectral_radius": 0.0,
                }
            )
        return out

    columns = ["alpha", "index", "eigenvalue", "oracle", "abs_err", "spectral_radius"]
    return _flat_sweep(one, config), columns


def cmd_gram(config):
    x = midpoints(config.grid_n)

    def one(alpha):
        out = []
        for n in range(config.count):
            pair = gram.gram_eigenpair(alpha, n)
            out.append(
                {
                    "alpha": alpha,
                    "index": n,
                    "zero_h": pair.zero_h,
                    "eigenvalue": pair.eigenvalue,
                    "residual": gram.operator_residual(pair, x),
                }
            )
        return out

    return _flat_sweep(one, config), ["alpha", "index", "zero_h", "eigenvalue", "residual"]


def cmd_kernel(config):
    mesh = np.linspace(0.0, 1.0, 9)

    def one(alpha):
        spec = kernels.make_kernel_spec(alpha, config.n)
        return [
            {
                "alpha": alpha,
                "n": config.n,
                "x": float(x),
                "y": float(y),
                "value": kernels.kernel_K(spec, float(x), float(y)),
            }
            for x in mesh
            for y in mesh
        ]

    return _flat_sweep(one, config), ["alpha", "n", "x", "y", "value"]


def cmd_hzeros(config):
    def one(alpha):
        zeros = gram.find_zeros(alpha, config.count)
        return [{"alpha": alpha, "index": n, "zero": z} for n, z in enumerate(zeros)]

    return _flat_sweep(one, config), ["alpha", "index", "zero"]


def cmd_iterates(config):
    ctx = LpContext(config.p, config.p)

    def one(alpha):
        report = bounds.growth_trend(alpha, config.p, max(config.n, 10))
        m = oracle.discretize(alpha, config.grid_n)
        out = []
        for i, n in enumerate(report.ns):
            n = int(n)
            est = None
            if n <= 6:
                norm = oracle.iterate_matrix_norm(m, n, ctx, tol=config.tol)
                est = math.log(norm) if norm > 0.0 else None  # null: M^n vanishes
            out.append(
                {
                    "alpha": alpha,
                    "n": n,
                    "log_lower": float(report.log_lower[i]),
                    "log_upper": float(report.log_upper[i]),
                    "oracle_log": est,
                    "normalized_lower": float(report.log_lower[i] / report.scale[i]),
                    "normalized_upper": float(report.log_upper[i] / report.scale[i]),
                    "target": report.target,
                }
            )
        return out

    columns = [
        "alpha",
        "n",
        "log_lower",
        "log_upper",
        "oracle_log",
        "normalized_lower",
        "normalized_upper",
        "target",
    ]
    return _flat_sweep(one, config), columns


def cmd_verify(config):
    rows = [
        {
            "invariant": r.invariant,
            "residual": r.residual,
            "tolerance": r.tolerance,
            "passed": r.passed,
        }
        for r in verify.run_all(grid_n=config.grid_n, seed=config.seed)
    ]
    ok = all(r["passed"] for r in rows)
    return rows, ["invariant", "residual", "tolerance", "passed"], ok


_HANDLERS = {
    "norm": cmd_norm,
    "sandwich": cmd_sandwich,
    "spectrum": cmd_spectrum,
    "gram": cmd_gram,
    "kernel": cmd_kernel,
    "hzeros": cmd_hzeros,
    "iterates": cmd_iterates,
    "verify": cmd_verify,
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="volterra-alpha",
        description="Norms, spectra and kernels of the integral-operator "
        "family with power-law upper limit, each cross-checked against a "
        "matrix discretization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument(
            "--alpha",
            type=parse_alpha_spec,
            default=[1.0],
            help="value, 'start:stop:count', or 'log:start:stop:count'",
        )
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--q", type=float, default=2.0)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--count", type=int, default=5)
        p.add_argument(
            "--grid-n",
            type=int,
            default=1024 if name == "verify" else 2048,
            dest="grid_n",
        )
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    exit_ok = True
    try:
        config = RunConfig(
            command=args.command,
            alphas=tuple(args.alpha),
            p=args.p,
            q=args.q,
            n=args.n,
            count=args.count,
            grid_n=args.grid_n,
            tol=args.tol,
            fmt=args.format,
            out=args.out,
            seed=args.seed,
        )
        result = _HANDLERS[config.command](config)
    except (DomainError, NumericsError, ValueError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return 1
    if len(result) == 3:
        rows, columns, exit_ok = result
    else:
        rows, columns = result
    if config.out:
        with open(config.out, "w") as fh:
            emit_table(rows, columns, config.fmt, fh)
    else:
        emit_table(rows, columns, config.fmt, sys.stdout)
    return 0 if exit_ok else 1


if __name__ == "__main__":
    sys.exit(main())
