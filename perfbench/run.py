"""Benchmark of the volterra-alpha command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectra --seed 3 --seconds 25 --trace 0

Each repetition of a workload is one fresh interpreter (``worker.py``)
that imports ``volterra_alpha.cli`` and runs the workload's commands
through ``cli.main(argv)`` back to back: a closed loop with one client.
The CLI keeps its defaults (``--jobs`` = CPU count; VOLTERRA_ALPHA_JOBS
is removed from the environment).  Every command's table goes through
``gate.check``; a nonzero exit, a raised exception or a value outside its
tolerance counts the command as failed.

``--trace 0`` repeats the workload, each repetition with fresh alpha
draws, until ``--seconds`` have passed (a repetition is never cut), then
times a few more bare imports, and reports the end-to-end metrics:
medians of set-up, solve wall and solve CPU time, and the peak resident
memory of any repetition.

``--trace 1`` runs repetition 0 once untraced and once with the layer
functions wrapped by ``tracer.py``, plus one ``python -X importtime``
import, and reports the per-layer metrics.  Spans go to
``.perfbench/trace-<workload>.jsonl``.

Metric names and units are read from BENCHMARK.json.  The last stdout
line is the JSON result; the line before it records the environment.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 150
# bare imports timed after the repetitions, so set-up has >= 5 samples
EXTRA_SETUP_SAMPLES = 4
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import volterra_alpha.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed command)."""


def _child_env():
    env = dict(os.environ)
    env.pop("VOLTERRA_ALPHA_JOBS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def run_worker(commands, trace_path=None, run_id=""):
    """One fresh interpreter running ``commands``; returns its report."""
    request = {"commands": commands, "trace": trace_path, "run_id": run_id, "src": str(SRC)}
    proc = _python([str(HERE / "worker.py")], json.dumps(request))
    return json.loads(proc.stdout)


def import_seconds():
    return float(_python(["-c", IMPORT_SNIPPET]).stdout)


def import_breakdown():
    """Self import time per top-level package from ``-X importtime``."""
    proc = _python(["-X", "importtime", "-c", "import volterra_alpha.cli"])
    totals = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line)
        if m:
            top = m.group(2).split(".")[0]
            totals[top] = totals.get(top, 0.0) + int(m.group(1)) * 1e-6
    return totals


def _cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _steal_frac(before, after):
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def gate_reports(reports):
    """(attempted, failed, worst accuracy records) over worker reports."""
    commands = [cmd for report in reports for cmd in report["commands"]]
    failed = 0
    records = {}
    for cmd in commands:
        problems = []
        if cmd["error"] or cmd["exit"] != 0:
            problems.append(f"exit {cmd['exit']} {cmd['error'] or cmd['stderr'].strip()}")
        else:
            try:
                rows = json.loads(cmd["stdout"])
            except json.JSONDecodeError as exc:
                problems.append(f"unparsable table: {exc}")
            else:
                problems, found = gate.check(cmd["argv"], rows)
                for key, value in found.items():
                    records[key] = max(records.get(key, 0.0), value)
        if problems:
            failed += 1
            print(f"FAILED {' '.join(cmd['argv'])}: {'; '.join(problems)}", file=sys.stderr)
    return len(commands), failed, records


def measure(workload, seed, seconds, tiny):
    """Untraced repetitions for ``seconds``; end-to-end metric values."""
    import_seconds()  # warm-up: compiles bytecode, proves the import works
    begin = time.perf_counter()
    reports = []
    while not reports or time.perf_counter() - begin < seconds:
        reports.append(run_worker(workloads.commands(workload, seed, len(reports), tiny)))
    setup = [r["setup_s"] for r in reports]
    setup += [import_seconds() for _ in range(EXTRA_SETUP_SAMPLES)]
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(r["solve_s"] for r in reports),
        "solve_cpu_s": statistics.median(r["solve_cpu_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    return reports, values


def _layer_value(name, layers):
    base, stat = name.rsplit(".", 1)
    agg = layers.get(base, {"s": 0.0, "calls": 0, "distinct": 0, "amount": 0, "errors": {}})
    calls = agg["calls"]
    if stat == "s":
        return agg["s"]
    if stat == "calls":
        return calls
    if stat in ("bytes", "points"):
        return agg["amount"]
    if stat == "distinct_frac":
        return agg["distinct"] / calls if calls else 0.0
    if stat == "cancel_frac":
        return agg["errors"].get("CancellationError", 0) / calls if calls else 0.0
    raise BenchError(f"no rule for per-layer metric {name}")


def trace(workload, seed, tiny):
    """Untraced and traced runs of repetition 0; per-layer metric values."""
    commands = workloads.commands(workload, seed, 0, tiny)
    plain = run_worker(commands)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.jsonl"
    traced = run_worker(commands, str(path), f"{workload}-{seed}")
    for a, b in zip(plain["commands"], traced["commands"]):
        if a["stdout"] != b["stdout"]:
            b["error"] = "tracing changed the command's output"
    imports = import_breakdown()
    named = ("numpy", "scipy", "volterra_alpha")
    values = {
        "trace.overhead_frac": traced["solve_s"] / plain["solve_s"] - 1.0,
        "cli.cpu_per_wall": plain["solve_cpu_s"] / plain["solve_s"],
        "setup.import.other_s": sum(v for k, v in imports.items() if k not in named),
    }
    values.update({f"setup.import.{k}_s": imports.get(k, 0.0) for k in named})
    return [plain, traced], values, traced["layers"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "volterra_alpha" / "cli.py").is_file():
        raise BenchError(f"no volterra_alpha source under {SRC}")

    stat0 = _cpu_times()
    if args.trace:
        reports, values, layers = trace(args.workload, args.seed, args.tiny)
    else:
        reports, values = measure(args.workload, args.seed, args.seconds, args.tiny)
        layers = {}
    steal = _steal_frac(stat0, _cpu_times())

    attempted, failed, records = gate_reports(reports)
    values["env.steal_frac"] = steal

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.startswith("check."):
            value = records.get(name, 0.0)
        else:
            value = _layer_value(name, layers)
        metrics[name] = {"value": value, "unit": m["unit"]}

    env = dict(reports[0]["env"])
    env.update(
        workload=args.workload,
        seed=args.seed,
        nproc=os.cpu_count(),
        repetitions=len(reports),
        steal_frac=steal,
    )
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
