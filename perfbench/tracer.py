"""Spans around the calls into each pcurlcurl layer, recorded from outside.

The tracer wraps functions where they are *bound*, not where they are
defined: the package uses from-imports (`solver.minres`, `helmholtz.cg`,
`cli.check_ineq1`, the re-exports in `pcurlcurl/__init__`), so every
module attribute that refers to a pcurlcurl function is replaced by one
shared wrapper. Nothing inside `src/` changes.

Every wrapper belongs to one layer name, `<module>.<function>`, where
`<module>` is the defining module. Re-entrant calls of the same name
(MINRES calling itself on the Jacobi-scaled system, `factorized` calling
`splu`) are transparent, so `calls` counts outermost calls only and
`busy_s` never counts an interval twice. A span's self time is its
duration minus the time its direct child spans cover.

Spans and counters are kept in memory per phase ("setup" or "op") and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager

# scipy's sparse direct-solve entry points, wrapped before pcurlcurl is
# imported so that `from scipy.sparse.linalg import splu` binds the wrapper.
DIRECT_SOLVE_MODULES = ("scipy.sparse.linalg", "scipy.sparse.linalg._dsolve",
                        "scipy.sparse.linalg._dsolve.linsolve")
DIRECT_SOLVE_FUNCTIONS = ("splu", "spilu", "spsolve", "factorized")
FACTORIZATIONS = "linalg.factorizations"
# Classes whose construction is a layer operation of its own.
CONSTRUCTORS = ("DivFreeProjector",)


def _nnz(matrix):
    nnz = getattr(matrix, "nnz", None)
    if nnz is not None:
        return int(nnz)
    size = getattr(matrix, "size", None)
    return int(size) if isinstance(size, int) else 0


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _krylov_counts(args, kwargs, result, counts):
    """Iterations, non-convergence and Σ iterations·nnz of a Krylov solve."""
    rep = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    iters = int(getattr(rep, "iterations", 0) or 0)
    counts["iterations"] += iters
    counts["unconverged"] += 0 if getattr(rep, "converged", True) else 1
    counts["nnz_work"] += iters * _nnz(_arg(args, kwargs, 0, "A"))


def _minres_counts(args, kwargs, result, counts):
    _krylov_counts(args, kwargs, result, counts)
    if _arg(args, kwargs, 4, "diag_precond") is not None:
        counts["jacobi_calls"] += 1


def _solve_counts(args, kwargs, result, counts):
    rep = result[-1] if isinstance(result, tuple) else None
    counts["stages"] += len(getattr(rep, "stages", ()))
    counts["newton_steps"] += int(getattr(rep, "total_newton_iterations", 0))


def _ineq_counts(args, kwargs, result, counts):
    counts["samples"] += int(getattr(result, "samples", 0))


def _file_bytes(path):
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return os.path.getsize(path)
    return 0


def _written_path_counts(args, kwargs, result, counts):
    counts["bytes"] += _file_bytes(_arg(args, kwargs, 0, "path"))


def _echo_counts(args, kwargs, result, counts):
    counts["bytes"] += _file_bytes(result)


# Extra counters read from arguments and return values at a layer boundary.
HOOKS = {
    "linalg.minres": _minres_counts,
    "linalg.cg": _krylov_counts,
    "solver.solve": _solve_counts,
    "verify.check_ineq1": _ineq_counts,
    "verify.check_ineq2": _ineq_counts,
    "io.write_vtk": _written_path_counts,
    "io.write_csv": _written_path_counts,
    "io.write_summary": _written_path_counts,
    "io.echo": _echo_counts,
}


def per_call_overhead(repeats=20000):
    """Seconds a recording wrapper adds to one call, measured on a no-op."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap(noop, "probe")
    with probe.recording("op"):
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t_traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    t_plain = time.perf_counter() - t0
    return max(t_traced - t_plain, 0.0) / repeats


def package_modules(package):
    """The package and every one of its submodules, imported."""
    return [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)]


class Tracer:
    """In-memory spans and per-layer counters, split by phase."""

    def __init__(self):
        self.phase = None            # None: not recording
        self.stack = []              # open spans: [name, start, child_time, index]
        self.depth = defaultdict(int)
        self.spans = []              # (phase, op, name, start, end, parent)
        self.op = -1
        self.stats = {"setup": defaultdict(lambda: defaultdict(float)),
                      "op": defaultdict(lambda: defaultdict(float))}
        self._wrappers = {}
        self.largest_result_bytes = 0    # biggest array a layer handed back

    # -- recording -------------------------------------------------------

    @contextmanager
    def recording(self, phase, op=-1):
        """Record spans that start inside the block under `phase`."""
        prev, prev_op = self.phase, self.op
        self.phase, self.op = phase, op
        try:
            yield
        finally:
            self.phase, self.op = prev, prev_op

    @contextmanager
    def paused(self):
        """Leave calls made inside the block (e.g. output checks) untraced."""
        with self.recording(None):
            yield

    def wrap(self, fn, name):
        """Wrapper recording spans under `name`; one wrapper per function."""
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None or self.depth[name]:
                return fn(*args, **kwargs)
            phase = self.phase
            parent = self.stack[-1][3] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [name, time.perf_counter(), 0.0, index]
            self.stack.append(frame)
            self.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.depth[name] -= 1
                self.stack.pop()
                dur = end - frame[1]
                st = self.stats[phase][name]
                st["calls"] += 1
                st["busy_s"] += dur
                st["self_s"] += dur - frame[2]
                if self.stack:
                    self.stack[-1][2] += dur
                self.spans[index] = (phase, self.op, name, frame[1], end, parent)
            if hook is not None:
                hook(args, kwargs, result, st)
            for item in (result if isinstance(result, tuple) else (result,)):
                nbytes = getattr(item, "nbytes", 0)
                if isinstance(nbytes, int) and nbytes > self.largest_result_bytes:
                    self.largest_result_bytes = nbytes
            return result

        traced.__wrapped_by_perfbench__ = True
        self._wrappers[key] = traced
        return traced

    # -- installation ----------------------------------------------------

    def install_direct_solvers(self):
        """Wrap scipy's sparse direct solvers; call before importing pcurlcurl."""
        for modname in DIRECT_SOLVE_MODULES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for fname in DIRECT_SOLVE_FUNCTIONS:
                fn = getattr(mod, fname, None)
                if callable(fn) and not hasattr(fn, "__wrapped_by_perfbench__"):
                    setattr(mod, fname, self.wrap(fn, FACTORIZATIONS))

    def install_package(self, package):
        """Wrap every binding of a public pcurlcurl function, in every module.

        Also wraps public methods of pcurlcurl classes (as
        `<module>.<method>`) and `DivFreeProjector` construction. Names
        absent from the package are simply never recorded.
        """
        prefix = package.__name__ + "."
        for mod in package_modules(package):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or hasattr(value, "__wrapped_by_perfbench__"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith(prefix):
                    layer = value.__module__[len(prefix):]
                    setattr(mod, attr, self.wrap(value, f"{layer}.{value.__qualname__}"))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(value, value.__module__[len(prefix):])

    def _install_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            setattr(cls, attr, self.wrap(value, f"{layer}.{attr}"))
        if cls.__name__ in CONSTRUCTORS:
            cls.__init__ = self.wrap(cls.__init__, f"{layer}.{cls.__name__}")

    # -- reporting -------------------------------------------------------

    def table(self, phase, per):
        """{name: {counter: value / per}} for one phase."""
        per = max(per, 1)
        return {name: {k: v / per for k, v in st.items()}
                for name, st in sorted(self.stats[phase].items())}

    def dump(self, path, meta):
        """Write all spans and both phase tables as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("phase", "op", "name", "start", "end", "parent")
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "tables": {ph: {n: dict(st) for n, st in tab.items()}
                                  for ph, tab in self.stats.items()},
                       "spans": [dict(zip(keys, s)) for s in self.spans if s]},
                      fh)
