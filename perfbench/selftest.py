"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, at tiny sizes, that every workload runs in both modes and
prints every metric named in BENCHMARK.json with its unit; that two
invocations with the same seed print byte-identical CLI tables; that
different seeds draw different alpha values; and that a deliberately
perturbed table trips the correctness gate.  Exits nonzero on the first
failed check.
"""

import json
import math
import subprocess
import sys

import run
import workloads

SEED = 7


def _check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result_lines(spec):
    for workload in workloads.NAMES:
        for mode, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(mode), "--tiny"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=600,
            )
            _check(proc.returncode == 0, f"{workload} trace={mode} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            _check(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={mode} result keys {sorted(result)}")
            _check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={mode} not correct: {proc.stderr}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _check(got == expected, f"{workload} trace={mode} metric names or units differ")
            _check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()),
                   f"{workload} trace={mode} has a non-numeric metric")
            _check(mode == 1 or all(m["value"] > 0 for m in result["metrics"].values()),
                   f"{workload}: an end-to-end metric reads 0")
            print(f"ok: {workload} trace={mode} prints all {len(expected)} metrics")


def check_same_seed_same_tables():
    """Returns one report per workload for the perturbation check."""
    reports = {}
    for workload in workloads.NAMES:
        commands = workloads.commands(workload, SEED, 0, tiny=True)
        first = run.run_worker(commands)
        second = run.run_worker(commands)
        for a, b in zip(first["commands"], second["commands"]):
            _check(a["stdout"] == b["stdout"] and a["stdout"],
                   f"{workload}: {' '.join(a['argv'])} printed different tables")
        _check(run.gate_reports([first])[1] == 0, f"{workload}: unperturbed tables fail the gate")
        reports[workload] = first
        print(f"ok: {workload} tables are byte-identical for one seed")
    return reports


def check_seeds_differ():
    for workload in workloads.NAMES:
        a = workloads.commands(workload, 1, 0)
        _check(a == workloads.commands(workload, 1, 0), f"{workload}: one seed, two command sets")
        _check(a != workloads.commands(workload, 2, 0), f"{workload}: seeds 1 and 2 agree")
    print("ok: seeds are deterministic and distinct")


def _unit_rows(rows):
    return [r for r in rows if r["alpha"] == 1.0]


def _bump(rows, column, amount, pick=lambda rows: rows):
    targets = pick(rows)
    if targets:
        targets[0][column] += amount
    return bool(targets)


def _set(row, column, value):
    row[column] = value
    return True


def _swap(rows, column):
    rows[0][column], rows[1][column] = rows[1][column], rows[0][column]
    return True


# command -> perturbations; each returns False when the table has no row it
# applies to, and otherwise must make a correct table fail the gate
PERTURBATIONS = {
    "verify": [lambda rows: _set(rows[0], "passed", False)],
    "spectrum": [
        lambda rows: _bump(rows, "oracle", 1e-2, lambda rs: [r for r in rs if r["alpha"] < 1]),
        lambda rows: _bump(rows, "oracle", 1e-2, lambda rs: [r for r in rs if r["alpha"] >= 1]),
    ],
    "gram": [lambda rows: _bump(rows, "residual", 1e-2), lambda rows: _swap(rows, "eigenvalue")],
    "hzeros": [lambda rows: _swap(rows, "zero"), lambda rows: _bump(rows, "zero", 1e-9, _unit_rows)],
    "norm": [lambda rows: _bump(rows, "norm22", 1e-7, _unit_rows),
             lambda rows: _set(rows[0], "norm22", rows[0]["upper"] * 1.01)],
    "sandwich": [lambda rows: _set(rows[0], "lower", rows[0]["upper"] + 1.0)],
    "iterates": [lambda rows: _set(rows[-1], "log_lower", rows[-1]["log_upper"] + 1.0)],
}


def check_perturbed_tables_fail(reports):
    tried = 0
    for report in reports.values():
        for cmd in report["commands"]:
            for perturb in PERTURBATIONS[cmd["argv"][0]]:
                rows = json.loads(cmd["stdout"])
                if not perturb(rows):
                    continue
                bad = dict(report, commands=[dict(cmd, stdout=json.dumps(rows))])
                _check(run.gate_reports([bad])[1] == 1,
                       f"perturbed {' '.join(cmd['argv'])} table passed the gate")
                tried += 1
    print(f"ok: {tried} perturbed tables all fail the gate")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_seeds_differ()
    check_perturbed_tables_fail(check_same_seed_same_tables())
    check_result_lines(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
