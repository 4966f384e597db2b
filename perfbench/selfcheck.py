"""Fast self-check of the benchmark itself (about half a minute).

    python3 perfbench/selfcheck.py

Runs every workload at tiny sizes (`run.py --small`), untraced and
traced, each in its own process, and checks that

- every metric BENCHMARK.json names is emitted, with its unit, and no other;
- the traced run's answer and counts equal the untraced run's
  (`trace.identical_to_untraced`, checked inside run.py);
- the counters of a 3^3, p = 10 solve repeat exactly over two traced
  runs and match the untraced run's Newton steps and stages.

The counter values are printed, not pinned: a change that legitimately
alters them does not break the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("solver.stages", "solver.newton_steps", "solver.energy.calls",
          "linalg.minres.calls", "linalg.minres.iterations", "linalg.cg.iterations",
          "linalg.csr_matrix_from_coo.calls", "assembly.assemble_jacobian.calls",
          "whitney.cell_geometry.calls", "linalg.factorizations")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in (w["name"] for w in spec["workloads"]):
            result, lines = run(wl, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in got if k in want and got[k] != want[k])}")
            if trace and "trace.identical_to_untraced = True" not in lines:
                problems.append(f"{wl}: traced answer differs from the untraced one")
            print(f"{wl} trace={trace}: attempted {result['attempted']}, failed "
                  f"{result['failed']}, correct {result['correct']}, "
                  f"{len(got)} metrics")

    first, _ = run("solve-p10", 1)
    second, _ = run("solve-p10", 1)
    _, plain = run("solve-p10", 0)
    counts = {k: first["metrics"][k]["value"] for k in COUNTS}
    again = {k: second["metrics"][k]["value"] for k in COUNTS}
    print("3^3 p=10 counters:", ", ".join(f"{k} {v:g}" for k, v in counts.items()))
    if counts != again:
        problems.append(f"counters differ between two runs: {counts} vs {again}")
    for key in ("newton_steps", "stages"):
        line = next((ln for ln in plain if ln.startswith(f"{key} = ")), "")
        untraced = float(line.split()[2]) if line else None
        if untraced != counts[f"solver.{key}"]:
            problems.append(f"untraced {key} {untraced} != traced {counts[f'solver.{key}']}")

    for p in problems:
        print("FAIL:", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
