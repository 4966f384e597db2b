"""The benchmark's workloads: seeded inputs, one operation, its checks.

Each workload has four steps:

- `setup(seed)` builds the mesh, the case and every seeded input; it is
  what `setup_s` times;
- `prepare(state, k)` makes operation k's input (untimed);
- `run(state, k, inp)` is one operation, which yields one certified
  answer; it is what `answer_s` times;
- `check(state, k, answer)` verifies the answer (untimed, untraced) and
  returns an `Outcome`.

The program only ever sees the generated inputs: initial guesses, field
modes and the CLI `seed` key. Functions are looked up on the package at
call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

UNIQUENESS_TOL = 1e-6        # acceptance criterion 7: ||curl(u - u0)||_Lp
CLOSURE_TOL = 1e-10          # extract_scalar_potential's default closure_tol
FRIEDRICH_TOL = 0.05         # acceptance criterion 5: relative error
PROJECTION_TOL = 1e-10       # ||G^T M u0|| / ||G^T M f||, 100x the CG tolerance
CURL_TOL = 1e-10             # max |curl u0 - curl f| / max |curl f|


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    values: dict = field(default_factory=dict)   # error_l2, answer_error, ...


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cube(pc, n):
    return pc.build_box_mesh((n, n, n), extents=(math.pi, math.pi, math.pi))


def _exact_norms(pc, mesh, case):
    """(||u*||_L2, ||curl u*||_Lp) by the quadrature measure_error uses."""
    return pc.measure_error(pc.EdgeField(mesh), case)


class SolveWorkload:
    """`case_general_p(p)` on the n^3 [0, pi]^3 box, default SolveConfig.

    Operation 0 starts from zero; operation k > 0 starts from a standard
    normal edge field drawn from (seed, k), as acceptance criterion 7
    does. Every operation must reach newton_tol and agree with operation
    0 to ||curl(u - u0)||_Lp <= 1e-6.
    """

    def __init__(self, pc, n, p):
        self.pc, self.n, self.p = pc, n, float(p)

    def setup(self, seed):
        pc = self.pc
        mesh = _cube(pc, self.n)
        return {"mesh": mesh, "case": pc.case_general_p(self.p), "seed": seed,
                "ref": None, "norms": None}

    def prepare(self, state, k):
        if k == 0:
            return None
        rng = np.random.default_rng([state["seed"], k])
        return rng.standard_normal(state["mesh"].num_edges)

    def run(self, state, k, guess):
        pc = self.pc
        mesh, case = state["mesh"], state["case"]
        config = pc.SolveConfig(p_target=self.p)
        init = None if guess is None else pc.EdgeField(mesh, guess)
        u, _, report = pc.solve(mesh, case.load, config, initial_guess=init)
        return {"u": u, "report": report, "tol": config.newton_tol}

    def fingerprint(self, answer):
        rep = answer["report"]
        return (_digest(answer["u"].coeffs), len(rep.stages),
                rep.total_newton_iterations)

    def check(self, state, k, answer):
        pc = self.pc
        mesh, case = state["mesh"], state["case"]
        u, rep = answer["u"], answer["report"]
        if state["norms"] is None:
            state["norms"] = _exact_norms(pc, mesh, case)
        l2, curl_err = pc.measure_error(u, case)
        values = {"error_l2": l2, "error_curl_lp": curl_err,
                  "answer_error": curl_err / state["norms"][1],
                  "stages": len(rep.stages),
                  "newton_steps": rep.total_newton_iterations}
        if k == 0:
            state["ref"] = u
        if not rep.final_residual <= answer["tol"]:
            return Outcome(False, f"KKT residual {rep.final_residual:.3e} above "
                                  f"newton_tol {answer['tol']:.1e}", values)
        if state["ref"] is None:
            return Outcome(False, "no zero-start answer to compare with", values)
        diff = pc.lp_norm_curl(pc.EdgeField(mesh, u.coeffs - state["ref"].coeffs),
                               self.p)
        values["uniqueness_gap"] = diff
        if not diff <= UNIQUENESS_TOL:
            rel = diff / max(pc.lp_norm_curl(state["ref"], self.p), 1e-300)
            return Outcome(False, f"differs from the zero start: curl-L{self.p:g} "
                                  f"{diff:.3e} ({100 * rel:.0f}% relative)", values)
        return Outcome(True, "", values)


class FieldsWorkload:
    """u* plus a seeded gradient on the n^3 box: split, measure, write, recover.

    The input is the edge interpolant of u* + grad(phi), boundary-zeroed,
    with phi a sum of `modes` terms A sin(ax) sin(by) sin(cz), integer
    a, b, c in 1..4 and standard normal A drawn from the seed.
    """

    def __init__(self, pc, n, modes=4):
        self.pc, self.n, self.modes = pc, n, modes

    def setup(self, seed):
        pc = self.pc
        mesh = _cube(pc, self.n)
        case = pc.case_p2_sine()
        rng = np.random.default_rng(seed)
        freqs = rng.integers(1, 5, size=(self.modes, 3))
        amps = rng.standard_normal(self.modes)

        def target(x):
            out = np.asarray(case.u_exact(x), dtype=float).copy()
            for (a, b, c), amp in zip(freqs, amps):
                sx, sy, sz = np.sin(a * x[:, 0]), np.sin(b * x[:, 1]), np.sin(c * x[:, 2])
                cx, cy, cz = np.cos(a * x[:, 0]), np.cos(b * x[:, 1]), np.cos(c * x[:, 2])
                out[:, 0] += amp * a * cx * sy * sz
                out[:, 1] += amp * b * sx * cy * sz
                out[:, 2] += amp * c * sx * sy * cz
            return out

        f = pc.edge_interpolate(target, mesh).zero_boundary()
        return {"mesh": mesh, "case": case, "f": f, "norms": None}

    def prepare(self, state, k):
        return None

    def run(self, state, k, _):
        pc = self.pc
        mesh, f = state["mesh"], state["f"]
        proj = pc.DivFreeProjector(mesh)
        u0, _ = proj.project(f)
        l2, curl_err = pc.measure_error(u0, state["case"])
        pc.io.write_vtk(os.path.join(state["work"], "field.vtk"), mesh, u0, name="B")
        grad = pc.EdgeField(mesh, f.coeffs - u0.coeffs)
        phi = pc.extract_scalar_potential(grad)
        return {"proj": proj, "u0": u0, "grad": grad, "phi": phi,
                "errors": (l2, curl_err)}

    def fingerprint(self, answer):
        return (_digest(answer["u0"].coeffs, answer["phi"].coeffs),
                answer["errors"])

    def check(self, state, k, answer):
        pc = self.pc
        mesh, f = state["mesh"], state["f"]
        if state["norms"] is None:
            state["norms"] = _exact_norms(pc, mesh, state["case"])
        l2, curl_err = answer["errors"]
        values = {"error_l2": l2, "error_curl_lp": curl_err,
                  "answer_error": curl_err / state["norms"][1]}
        proj, u0 = answer["proj"], answer["u0"]
        div = proj.constraint_norm(u0.coeffs) / proj.constraint_norm(f.coeffs)
        geom = pc.cell_geometry(mesh)
        c0 = pc.assembly.curl_per_tet(u0, geom)
        cf = pc.assembly.curl_per_tet(f, geom)
        curl = float(np.abs(c0 - cf).max() / np.abs(cf).max())
        lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
        phi = answer["phi"].coeffs
        trip = float(np.abs(phi[hi] - phi[lo] - answer["grad"].coeffs).max())
        values.update(divergence=div, curl_change=curl, round_trip=trip)
        if not div <= PROJECTION_TOL:
            return Outcome(False, f"divergence {div:.3e} above {PROJECTION_TOL:g}", values)
        if not curl <= CURL_TOL:
            return Outcome(False, f"curl changed by {curl:.3e}", values)
        if not trip <= CLOSURE_TOL:
            return Outcome(False, f"potential round trip {trip:.3e}", values)
        if not os.path.getsize(os.path.join(state["work"], "field.vtk")) > 0:
            return Outcome(False, "empty VTK file", values)
        return Outcome(True, "", values)


class CertifyWorkload:
    """`pcurlcurl verify` at its defaults, then `friedrich` at p = 2.

    Both run through `cli.main` with the CLI `seed` key set to the
    workload seed. The answer is certified if both exit 0, no sampled
    pair violates its envelope, the potential round trip closes and the
    extrapolated constant is within 5% of 1/sqrt(2).
    """

    def __init__(self, pc, verify_args=(), levels="4,8,12"):
        self.pc, self.verify_args, self.levels = pc, list(verify_args), levels

    def setup(self, seed):
        return {"seed": seed}

    def prepare(self, state, k):
        return None

    def run(self, state, k, _):
        seed = str(state["seed"])
        text = io.StringIO()
        os.environ["PCURLCURL_OUT_ROOT"] = os.path.join(state["work"], f"op{k}")
        with contextlib.redirect_stdout(text):
            rc_verify = self.pc.cli.main(["verify", "--seed", seed, "--out_dir",
                                          "verify", *self.verify_args])
            rc_friedrich = self.pc.cli.main(["friedrich", "--p", "2", "--levels",
                                             self.levels, "--seed", seed,
                                             "--out_dir", "friedrich"])
        return {"codes": (rc_verify, rc_friedrich), "text": text.getvalue()}

    def fingerprint(self, answer):
        return answer["codes"], answer["text"]

    def check(self, state, k, answer):
        text = answer["text"]

        def number(key):
            m = re.search(rf"^{key} = (\S+)$", text, re.MULTILINE)
            return float(m.group(1)) if m else math.nan

        extrapolated = number("extrapolated")
        gap = abs(extrapolated - 1.0 / math.sqrt(2.0)) * math.sqrt(2.0)
        violations = number("total_violations")
        trip = number("potential_round_trip_max_err")
        values = {"friedrich_gap": gap, "answer_error": gap,
                  "violations": violations, "round_trip": trip}
        if answer["codes"] != (0, 0):
            return Outcome(False, f"exit codes {answer['codes']}", values)
        if not violations == 0:
            return Outcome(False, f"{violations:g} inequality violations", values)
        if not trip <= CLOSURE_TOL:
            return Outcome(False, f"potential round trip {trip:.3e}", values)
        if not gap <= FRIEDRICH_TOL:
            return Outcome(False, f"Friedrich gap {gap:.3e} above 5%", values)
        return Outcome(True, "", values)


# name -> factory(pc); why each exists is in BENCHMARK.json and README.md.
# Sizes are fixed; the self-check uses SMALL. solve-p100 is not in
# BENCHMARK.json: every run of it fails the uniqueness check (see
# README.md), and a gated workload must have operations that pass. It
# stays runnable by hand, with its check unchanged, so that a fix shows.
WORKLOADS = {
    "solve-p10": lambda pc: SolveWorkload(pc, 6, 10),
    "solve-p100": lambda pc: SolveWorkload(pc, 4, 100),
    "fields-32": lambda pc: FieldsWorkload(pc, 32),
    "certify": lambda pc: CertifyWorkload(pc),
}

SMALL = {
    "solve-p10": lambda pc: SolveWorkload(pc, 3, 10),
    "solve-p100": lambda pc: SolveWorkload(pc, 2, 100),
    "fields-32": lambda pc: FieldsWorkload(pc, 4),
    "certify": lambda pc: CertifyWorkload(
        pc, ["--n_samples", "2000", "--p_grid", "2,10", "--green_levels", "2"],
        levels="2,4,8"),
}
