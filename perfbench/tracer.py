"""Outside-in span tracer for the library's public layer functions.

The library has no instrumentation of its own, so the traced run wraps
functions from here: every module attribute of ``volterra_alpha`` that
is one of the target function objects (including names bound by
``from ... import``, such as ``cli.apply_T`` or
``bounds.make_kernel_spec``) is replaced by a wrapper that records a
span.  The current span lives in a ``ContextVar``; the CLI's thread pool
is given a context-copying ``submit`` so spans opened in worker threads
nest under the command that spawned them.

Spans (id, name, start, end, parent) stay in memory and are written as
JSON lines by ``write``.  A span's self time is its duration minus the
union of the intervals its children cover.
"""

import contextvars
import itertools
import json
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


def _points(args, kwargs):
    import numpy as np

    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _matrix_bytes(args, kwargs):
    n = int(args[1] if len(args) > 1 else kwargs["n_points"])
    return n * n * 8


def _g_key(args, kwargs):
    spec, z = args[0], args[1]
    return (spec.alpha, spec.n, z)


def _alpha_key(args, kwargs):
    return args[0]


# (module, attribute, extra): ``extra`` maps the call arguments to either a
# key (``distinct_frac``: distinct keys over calls) or an amount summed
# into ``bytes``/``points``.
TARGETS = (
    ("kernels", "g_recursive", ("distinct_frac", _g_key)),
    ("kernels", "g_closed", None),
    ("kernels", "kernel_K", None),
    ("kernels", "make_kernel_spec", None),
    ("bounds", "growth_trend", None),
    ("bounds", "norm_sandwich", None),
    ("oracle", "discretize", ("bytes", _matrix_bytes)),
    ("oracle", "top_eigenvalues", None),
    ("oracle", "spectral_radius_estimate", None),
    ("oracle", "iterate_matrix_norm", None),
    ("oracle", "largest_singular_value", None),
    ("oracle", "matrix_norm_22", None),
    ("oracle", "top_gram_eigenvalues", None),
    ("gram", "eval_H", None),
    ("gram", "eval_H_derivative", None),
    ("gram", "find_zeros", ("distinct_frac", _alpha_key)),
    ("gram", "gram_eigenpair", None),
    ("gram", "norm_22", None),
    ("transform", "apply_T", None),
    ("transform", "apply_T_adjoint", None),
    ("transform", "lp_norm", None),
    ("point_spectrum", "eigen_residual", None),
    ("special", "gaussian_binomial", None),
    ("verify", "check_q_identities", None),
    ("verify", "check_kernel_identities", None),
    ("verify", "check_transform", None),
    ("verify", "check_point_spectrum", None),
    ("verify", "check_oracle", None),
    ("verify", "check_gram", None),
    ("verify", "check_bounds", None),
)
# TruncatedSeries.__call__ evaluates a Gram eigenfunction on a grid
EIGENFUNCTION = "gram.eigenfunction"


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent, extra, error type)
        self._ids = itertools.count(1)
        self._parent = contextvars.ContextVar("perfbench_parent", default=None)
        self._kinds = {}  # name -> "distinct_frac", "bytes" or "points"

    def wrap(self, fn, name, extra=None):
        spans, ids, parent_var = self.spans, self._ids, self._parent
        extract = None
        if extra:
            self._kinds[name], extract = extra

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = parent_var.get()
            token = parent_var.set(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                parent_var.reset(token)
                value = extract(args, kwargs) if extract else None
                spans.append((sid, name, start, end, parent, value, error))

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        return self.wrap(fn, name)(*args)

    def install(self, package):
        """Patch every target in ``package`` (the imported volterra_alpha)."""
        prefix = package.__name__ + "."
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)
        ]
        for module_name, attr, extra in TARGETS:
            original = getattr(getattr(package, module_name), attr)
            wrapped = self.wrap(original, f"{module_name}.{attr}", extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        series = package.gram.TruncatedSeries
        series.__call__ = self.wrap(series.__call__, EIGENFUNCTION, ("points", _points))
        package.cli.ThreadPoolExecutor = _context_pool(ThreadPoolExecutor)

    def summary(self):
        """Per-name self time, calls and the extra figures of each target."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: {"s": 0.0, "calls": 0, "keys": set(), "amount": 0, "errors": {}})
        for sid, name, start, end, _, value, error in self.spans:
            agg = out[name]
            agg["s"] += (end - start) - _covered(children.get(sid, ()), start, end)
            agg["calls"] += 1
            if self._kinds.get(name) == "distinct_frac":
                agg["keys"].add(value)
            elif value is not None:
                agg["amount"] += value
            if error is not None:
                agg["errors"][error] = agg["errors"].get(error, 0) + 1
        return {
            name: {"s": a["s"], "calls": a["calls"], "distinct": len(a["keys"]),
                   "amount": a["amount"], "errors": a["errors"]}
            for name, a in out.items()
        }

    def write(self, path):
        """All spans as JSON lines: run, id, name, start, end, parent, error."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, _, error in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "error": error}) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _context_pool(base):
    """Executor class whose tasks run in a copy of the submitter's context."""

    class ContextPool(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

    return ContextPool
