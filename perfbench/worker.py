"""One fresh interpreter running one repetition of a workload.

Run with the checkout's ``src`` as PYTHONPATH; reads a JSON request on
stdin: ``{"src": dir, "commands": [argv, ...], "trace": path or null,
"run_id": str}``, where ``src`` is checked to be where the package came
from.  It times the import of ``volterra_alpha.cli`` (set-up), then runs
each argv through ``cli.main`` back to back, capturing the table each
prints, and writes one JSON object to stdout with the timings,
per-command outputs, the process's peak resident memory and, when
traced, the per-layer summary.  With a trace path the spans are also written there as JSON
lines after the timed span ends.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded, or Nones."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), int(threads())
    return None, None


def _run_command(run, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception as exc:  # any raise is a failed command, reported below
        code, error = None, f"{type(exc).__name__}: {exc}"
    return {
        "argv": argv,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": _cpu_seconds() - cpu0,
    }


def main():
    request = json.load(sys.stdin)
    start = time.perf_counter()
    import volterra_alpha.cli as cli

    setup_s = time.perf_counter() - start
    package = sys.modules["volterra_alpha"]
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(request["src"]) + os.sep):
        raise SystemExit(f"imported {package.__file__}, not the checkout's source")

    tracer = None
    run = cli.main
    if request.get("trace"):
        from tracer import Tracer

        tracer = Tracer(request["run_id"])
        tracer.install(package)
        run = lambda argv: tracer.span(f"cli.{argv[0]}", cli.main, argv)  # noqa: E731

    results = []
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    for argv in request["commands"]:
        results.append(_run_command(run, argv))
    solve_s = time.perf_counter() - wall0
    solve_cpu_s = _cpu_seconds() - cpu0

    openblas_version, openblas_threads = _openblas()
    report = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "solve_cpu_s": solve_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": results,
        "env": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
            "openblas": openblas_version,
            "openblas_threads": openblas_threads,
            "jobs": os.cpu_count() or 1,
        },
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.write(request["trace"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
