"""Correctness gate: each CLI command's table against its stated tolerance.

``check(argv, table)`` takes the argv of one command and the rows it
printed (parsed JSON) and returns ``(problems, records)``: a list of
human-readable failures (empty when the command passed) and the accuracy
figures it saw, keyed by the ``check.*`` metric they feed.  Reference
values (eigenvalues alpha^n (1 - alpha), the zeros (pi (2n + 1) / 4)^2 of
cos(2 sqrt(z)) and the norm 2/pi at alpha = 1) are computed here, not
read from the table.
"""

import math

SPECTRUM_ABS_ERR = 2e-3
SPECTRAL_RADIUS = 5e-3
GRAM_RESIDUAL = 5e-3
UNIT_ZERO_ERR = 1e-10
UNIT_NORM_ERR = 1e-8


def _alpha_count(argv):
    """How many alpha values the --alpha argument expands to."""
    spec = argv[argv.index("--alpha") + 1]
    return int(spec.rsplit(":", 1)[1]) if ":" in spec else 1


def _by_alpha(rows):
    groups = {}
    for row in rows:
        groups.setdefault(row["alpha"], []).append(row)
    return groups


def _finite(rows, columns):
    return all(
        isinstance(row.get(c), (int, float)) and math.isfinite(row[c])
        for row in rows
        for c in columns
    )


def _strictly(values, increasing):
    pairs = zip(values, values[1:])
    return all((b > a) if increasing else (b < a) for a, b in pairs)


def _check_verify(rows):
    problems = [f"verify row {r['invariant']} failed" for r in rows if r["passed"] is not True]
    # rows with tolerance 0 (exact invariants) pass or fail but have no ratio
    ratios = [r["residual"] / r["tolerance"] for r in rows if r["tolerance"] > 0]
    return problems, {"check.verify_worst_ratio": max(ratios, default=0.0)}


def _check_spectrum(rows):
    problems = []
    worst = 0.0
    if not _finite(rows, ("alpha", "eigenvalue", "oracle")):
        return ["non-finite spectrum value"], {}
    for row in rows:
        alpha = row["alpha"]
        if alpha < 1.0:
            expect = alpha ** row["index"] * (1.0 - alpha)
            err = max(abs(row["oracle"] - expect), abs(row["eigenvalue"] - expect))
            if not err <= SPECTRUM_ABS_ERR:
                problems.append(f"spectrum alpha={alpha} index={row['index']} error {err:.3g}")
        else:
            err = row["oracle"]
            if not 0.0 <= err <= SPECTRAL_RADIUS:
                problems.append(f"spectral radius at alpha={alpha} is {err:.3g}")
        worst = max(worst, err)
    return problems, {"check.spectrum_abs_err_max": worst}


def _check_gram(rows):
    if not _finite(rows, ("alpha", "eigenvalue", "residual")):
        return ["non-finite gram value"], {}
    problems = [
        f"gram residual {r['residual']:.3g} at alpha={r['alpha']}"
        for r in rows
        if not r["residual"] <= GRAM_RESIDUAL
    ]
    for alpha, group in _by_alpha(rows).items():
        if not _strictly([r["eigenvalue"] for r in group], increasing=False):
            problems.append(f"gram eigenvalues not decreasing at alpha={alpha}")
    return problems, {"check.gram_residual_max": max(r["residual"] for r in rows)}


def _check_hzeros(rows):
    if not _finite(rows, ("alpha", "zero")):
        return ["non-finite zero"], {}
    problems = []
    worst = 0.0
    groups = _by_alpha(rows)
    for alpha, group in groups.items():
        if not _strictly([r["zero"] for r in group], increasing=True):
            problems.append(f"zeros not increasing at alpha={alpha}")
        if alpha == 1.0:
            for r in group:
                err = abs(r["zero"] - (math.pi * (2 * r["index"] + 1) / 4.0) ** 2)
                worst = max(worst, err)
                if not err <= UNIT_ZERO_ERR:
                    problems.append(f"zero {r['index']} at alpha=1 off by {err:.3g}")
    return problems, ({"check.hzeros_unit_err_max": worst} if 1.0 in groups else {})


def _check_norm(rows):
    if not _finite(rows, ("alpha", "norm22", "lower", "upper")):
        return ["non-finite norm value"], {}
    problems = [
        f"norm22 outside its sandwich at alpha={r['alpha']}"
        for r in rows
        if not r["lower"] <= r["norm22"] <= r["upper"]
    ]
    records = {}
    for r in rows:
        if r["alpha"] == 1.0:
            err = abs(r["norm22"] - 2.0 / math.pi)
            records["check.norm_unit_err"] = err
            if not err <= UNIT_NORM_ERR:
                problems.append(f"norm at alpha=1 off 2/pi by {err:.3g}")
    return problems, records


def _check_sandwich(rows):
    if not _finite(rows, ("alpha", "lower", "upper")):
        return ["non-finite sandwich value"], {}
    return [f"sandwich inverted at alpha={r['alpha']}" for r in rows if not r["lower"] <= r["upper"]], {}


def _check_iterates(rows):
    if not _finite(rows, ("alpha", "log_lower", "log_upper")):
        return ["non-finite iterate bound"], {}
    return [
        f"iterate bounds inverted at alpha={r['alpha']} n={r['n']}"
        for r in rows
        if not r["log_lower"] <= r["log_upper"]
    ], {}


_CHECKS = {
    "verify": _check_verify,
    "spectrum": _check_spectrum,
    "gram": _check_gram,
    "hzeros": _check_hzeros,
    "norm": _check_norm,
    "sandwich": _check_sandwich,
    "iterates": _check_iterates,
}


def check(argv, rows):
    """Problems found in one command's table, and its accuracy records."""
    if not rows:
        return ["empty table"], {}
    command = argv[0]
    if command != "verify":
        seen = len(_by_alpha(rows))
        expected = _alpha_count(argv)
        if seen != expected:
            return [f"{seen} alpha values in the table, {expected} requested"], {}
    try:
        return _CHECKS[command](rows)
    except (KeyError, TypeError) as exc:
        return [f"malformed {command} table: {exc!r}"], {}
