"""Time to a certified answer, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-p10 --seed 1 --seconds 25 --trace 0

One process runs one workload closed loop: set up three times, then one
operation at a time until `--seconds` have passed (at least one). Every operation's answer is checked. The
last line of standard output is one JSON object; the lines before it
name every metric with its unit, the environment and each failure.

`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
wraps every pcurlcurl layer (see tracer.py), reports the per-layer
metrics as per-operation values, and writes all spans to
`.perfbench_work/trace-<workload>-<seed>.json`. It first runs operation
0 untraced, so that the traced and untraced answers can be compared.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

from tracer import Tracer, package_modules, per_call_overhead  # noqa: E402
from workloads import SMALL, WORKLOADS, Outcome            # noqa: E402

END_TO_END = {"setup_s": "s", "answer_s": "s", "peak_rss_mb": "MiB",
              "answer_error": "ratio"}

# Layer functions reported per operation: calls, busy_s and self_s each.
LAYER_FUNCTIONS = (
    "linalg.minres", "linalg.cg", "linalg.csr_matrix_from_coo",
    "assembly.assemble_jacobian", "assembly.assemble_residual",
    "assembly.assemble_load", "assembly.curl_per_tet",
    "solver.solve", "solver.energy",
    "whitney.cell_geometry", "whitney.eval_basis",
    "helmholtz.DivFreeProjector", "helmholtz.edge_mass_matrix", "helmholtz.project",
    "mms.measure_error", "verify.check_ineq", "verify.friedrich_constant",
    "verify.check_green_formulas", "verify.extract_scalar_potential",
    "io.write_vtk", "mesh.build_box_mesh", "cli.main",
)
COUNTERS = {
    "linalg.minres.iterations": "count", "linalg.minres.unconverged": "count",
    "linalg.minres.jacobi_calls": "count", "linalg.minres.nnz_work": "count",
    "linalg.cg.iterations": "count", "linalg.cg.unconverged": "count",
    "linalg.cg.nnz_work": "count", "linalg.factorizations": "count",
    "solver.stages": "count", "solver.newton_steps": "count",
    "solver.ls_accept_ratio": "ratio", "verify.check_ineq.samples_per_s": "1/s",
    "io.write_vtk.bytes": "B", "io.bytes_written": "B", "fp_warnings": "count",
    "setup.mesh.build_box_mesh.busy_s": "s",
    "setup.assembly.edge_interpolate.busy_s": "s",
    "setup.whitney.cell_geometry.calls": "count",
    "trace.overhead_s": "s",
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def per_layer_units():
    out = {f"{fn}.{k}": u for fn in LAYER_FUNCTIONS for k, u in UNITS.items()}
    out.update(COUNTERS)
    return out


# -- environment ----------------------------------------------------------

def _blas():
    """(OpenBLAS config string, thread count) of numpy's bundled BLAS."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads and get_config:
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return "unknown", 0


def _llc_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    for idx in sorted(glob.glob(os.path.join(base, "index*"))):
        try:
            with open(os.path.join(idx, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        best = max(best, int(size.rstrip("KM")) * scale)
    return best


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment():
    import numpy
    import scipy
    config, threads = _blas()
    nproc = len(os.sched_getaffinity(0))
    return {"git_sha": _git_sha(), "nproc": nproc, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": config, "blas_threads": threads,
            "blas_threads_le_nproc": 0 < threads <= nproc,
            "llc_bytes": _llc_bytes()}


# -- measurement ----------------------------------------------------------

def import_seconds(repeats):
    """Median wall time of a fresh interpreter importing pcurlcurl."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import pcurlcurl"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    idx = n - 11
    return sorted(values)[idx], 100.0 * (idx + 1) / n


class Run:
    def __init__(self, args):
        self.args = args
        self.small = args.small
        self.tracer = Tracer() if args.trace else None
        self.lines = []
        self.times, self.outcomes, self.warnings = [], [], 0
        self.first = None            # fingerprint of operation 0's answer

    def say(self, text):
        self.lines.append(text)

    def execute(self):
        args = self.args
        if not os.path.isfile(os.path.join(SRC, "pcurlcurl", "__init__.py")):
            raise SystemExit(f"error: no pcurlcurl package under {SRC}")
        t_import = None if args.trace else import_seconds(IMPORT_REPEATS)
        if self.tracer:
            self.tracer.install_direct_solvers()
        sys.path.insert(0, SRC)
        import pcurlcurl as pc
        if os.path.dirname(os.path.abspath(pc.__file__)) != os.path.join(SRC, "pcurlcurl"):
            raise SystemExit(f"error: imported pcurlcurl from {pc.__file__}")
        package_modules(pc)          # io and cli are not imported by the package
        if self.tracer:
            self.tracer.install_package(pc)
        factory = (SMALL if self.small else WORKLOADS)[args.workload]
        workload = factory(pc)
        work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            return self._measure(pc, workload, work, t_import)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _recording(self, phase, k=-1):
        return self.tracer.recording(phase, k) if self.tracer else contextlib.nullcontext()

    def _paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _measure(self, pc, workload, work, t_import):
        args = self.args
        setups, state = [], None
        for _ in range(SETUP_REPEATS):
            state = None
            t0 = time.perf_counter()
            with self._recording("setup"):
                state = workload.setup(args.seed)
            setups.append(time.perf_counter() - t0)
        state["work"] = work

        # The untraced operation counts against --seconds, so that a traced
        # run lasts about as long as an untraced one.
        start = time.perf_counter()
        untraced = None
        if self.tracer:
            inp = workload.prepare(state, 0)
            with self._paused():
                answer = workload.run(state, 0, inp)
            untraced = (time.perf_counter() - start, workload.fingerprint(answer))
            del answer

        k = 0
        while k == 0 or time.perf_counter() - start < args.seconds:
            self._operation(workload, state, k)
            k += 1
        if self.tracer:
            self._traced_extras(untraced)
        return self._report(setups, t_import)

    def _operation(self, workload, state, k):
        inp = workload.prepare(state, k)
        answer, error = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            t0 = time.perf_counter()
            try:
                with self._recording("op", k):
                    answer = workload.run(state, k, inp)
            except Exception as exc:                       # counted, not raised
                error = f"{type(exc).__name__}: {exc}"
            self.times.append(time.perf_counter() - t0)
        self.warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        if error is None:
            with self._paused():
                outcome = workload.check(state, k, answer)
            if k == 0:
                self.first = workload.fingerprint(answer)
        else:
            outcome = Outcome(False, error)
        self.outcomes.append(outcome)
        if not outcome.ok:
            self.say(f"op {k}: FAILED: {outcome.reason}")

    def _traced_extras(self, untraced):
        t_untraced, fp_untraced = untraced
        self.identical = fp_untraced == self.first
        self.say(f"trace.identical_to_untraced = {self.identical}")
        # One pair of operations differs by machine drift and by which ran
        # first (cold heap), far more than the wrappers cost; it is printed,
        # and trace.overhead_s counts the wrappers' own cost instead.
        self.say(f"trace.op0_traced_minus_untraced_s = {self.times[0] - t_untraced:.6f}")

    def _median_value(self, key):
        vals = [o.values[key] for o in self.outcomes if key in o.values]
        return statistics.median(vals) if vals else None

    def _report(self, setups, t_import):
        n = len(self.times)
        failed = sum(not o.ok for o in self.outcomes)
        self.say(f"workload = {self.args.workload} (seed {self.args.seed}, "
                 f"closed loop, 1 client)")
        self.say(f"operations = {n}, failed = {failed}, failed_frac = {failed / n:.4f}")
        self.say(f"answer_s.each = {', '.join(f'{t:.4f}' for t in self.times)}")
        tl = tail(self.times)
        self.say("answer_s.tail = " + (f"{tl[0]:.6f} s (p{tl[1]:.1f}, n = {n})" if tl else
                 f"n/a (n = {n}; needs 11 operations for ten beyond a percentile)"))
        for key in ("error_l2", "error_curl_lp", "friedrich_gap", "uniqueness_gap",
                    "newton_steps", "stages"):
            val = self._median_value(key)
            if val is not None:
                self.say(f"{key} = {val:.10g} (median over operations)")
        correct = failed == 0
        if self.tracer:
            correct = correct and self.identical
            metrics = self._per_layer(n)
        else:
            error = self._median_value("answer_error")
            metrics = {
                "setup_s": t_import + statistics.median(setups),
                "answer_s": statistics.median(self.times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                # no checked answer at all counts as a 100% error
                "answer_error": 1.0 if error is None else error,
            }
            self.say(f"setup_s.import = {t_import:.6f} s, setup_s.build = "
                     f"{', '.join(f'{t:.6f}' for t in setups)} s")
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        for name, m in metrics.items():
            if m["value"] or not self.tracer:      # per-layer zeros: layer not used
                self.say(f"{name} = {m['value']:.6g} {m['unit']}")
        return {"correct": bool(correct), "attempted": n, "failed": failed,
                "metrics": metrics}

    def _per_layer(self, n):
        tr = self.tracer
        ops = tr.table("op", n)
        setup = tr.table("setup", SETUP_REPEATS)

        def get(name, key, table=ops):
            return table.get(name, {}).get(key, 0.0)

        calls = sum(st.get("calls", 0.0) for st in ops.values())
        ineq = [ops.get(f"verify.check_ineq{i}", {}) for i in (1, 2)]
        ops["verify.check_ineq"] = {k: sum(t.get(k, 0.0) for t in ineq)
                                    for k in ("calls", "busy_s", "self_s", "samples")}
        values = {f"{fn}.{k}": get(fn, k) for fn in LAYER_FUNCTIONS for k in UNITS}
        for name in ("linalg.minres", "linalg.cg"):
            for k in ("iterations", "unconverged", "nnz_work"):
                values[f"{name}.{k}"] = get(name, k)
        values["linalg.minres.jacobi_calls"] = get("linalg.minres", "jacobi_calls")
        values["linalg.factorizations"] = get("linalg.factorizations", "calls")
        values["solver.stages"] = get("solver.solve", "stages")
        values["solver.newton_steps"] = get("solver.solve", "newton_steps")
        trials = get("solver.energy", "calls") - values["solver.stages"]
        values["solver.ls_accept_ratio"] = (values["solver.newton_steps"] / trials
                                            if trials > 0 else 0.0)
        busy = get("verify.check_ineq", "busy_s")
        values["verify.check_ineq.samples_per_s"] = (
            get("verify.check_ineq", "samples") / busy if busy > 0 else 0.0)
        values["io.write_vtk.bytes"] = get("io.write_vtk", "bytes")
        values["io.bytes_written"] = sum(st.get("bytes", 0.0) for name, st in ops.items()
                                         if name.startswith("io."))
        values["fp_warnings"] = self.warnings / n
        values["setup.mesh.build_box_mesh.busy_s"] = get("mesh.build_box_mesh", "busy_s", setup)
        values["setup.assembly.edge_interpolate.busy_s"] = get(
            "assembly.edge_interpolate", "busy_s", setup)
        values["setup.whitney.cell_geometry.calls"] = get("whitney.cell_geometry", "calls",
                                                          setup)
        values["trace.overhead_s"] = calls * per_call_overhead()
        self.say(f"env.largest_layer_array_bytes = {tr.largest_result_bytes}")
        answer = statistics.median(self.times)
        for name in sorted(ops, key=lambda nm: -ops[nm].get("self_s", 0.0))[:12]:
            st = ops[name]
            self.say(f"layer {name}: calls {st.get('calls', 0):.4g}, busy "
                     f"{st.get('busy_s', 0):.4f} s ({100 * st.get('busy_s', 0) / answer:.1f}% "
                     f"of answer_s), self {st.get('self_s', 0):.4f} s")
        if not self.small:
            tr.dump(os.path.join(WORK, f"trace-{self.args.workload}-{self.args.seed}.json"),
                    {"workload": self.args.workload, "seed": self.args.seed,
                     "operations": n, "times": self.times})
        units = per_layer_units()
        return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny sizes, for selfcheck.py only")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    run = Run(args)
    for key, value in environment().items():
        run.say(f"env.{key} = {value}")
    result = run.execute()
    print("\n".join(run.lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
