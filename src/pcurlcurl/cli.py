"""Command-line driver: solve | verify | friedrich | converge.

Usage:
    pcurlcurl <command> [--config FILE] [--key value]...

`solve` and `converge` solve the manufactured problem case_general_p(p)
(the p = 2 sine case at p = 2); the exponent p is their only solver
input, since every tolerance and budget is a module constant.

Every run echoes its effective configuration into the output directory,
so results are reproducible from that file alone. Exit codes: 0 success,
1 solver/runtime failure (partial outputs are flagged in the summary),
2 configuration error (a `MeshError` in a command is one, also flagged).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .assembly import EdgeField, assemble_gradient_map
from .io import ConfigError, RunConfig, write_csv, write_summary, write_vtk
from .mesh import MeshError, build_box_mesh
from .mms import case_general_p, measure_error
from .solver import SolveConfig, SolverError, solve
from .verify import (check_green_formulas, check_inequalities,
                     default_smooth_pair, extract_scalar_potential,
                     friedrich_constant)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pcurlcurl",
        description="Nonlinear curl-curl solver and verification lab")
    parser.add_argument("command",
                        choices=("solve", "verify", "friedrich", "converge"))
    parser.add_argument("--config", default=None, help="key = value file")
    args, extra = parser.parse_known_args(argv)

    try:
        overrides = _pair_overrides(extra)
        cfg = RunConfig.load(args.command, args.config, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    handler = {"solve": cmd_solve, "verify": cmd_verify,
               "friedrich": cmd_friedrich, "converge": cmd_converge}
    out = cfg.out_dir()
    cfg.echo(out)
    summary = os.path.join(out, "summary.txt")
    try:
        lines = ["status = OK"] + handler[args.command](cfg, out)
    except (SolverError, MeshError) as exc:
        write_summary(summary, ["status = FAILED (partial outputs only)",
                                f"reason = {exc}"])
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, MeshError) else 1
    write_summary(summary, lines)
    print("\n".join(lines))
    return 0


def _pair_overrides(tokens):
    """Turn trailing '--key value' pairs into a dict."""
    out = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--") or i + 1 >= len(tokens):
            raise ConfigError(f"expected '--key value' pairs, got {tokens[i:]}")
        out[tok[2:]] = tokens[i + 1]
        i += 2
    return out


def _mesh_from(cfg, divisions=None):
    return build_box_mesh(divisions or cfg["divisions"],
                          origin=cfg["box_origin"], extents=cfg["box_extents"])


def cmd_solve(cfg, out):
    mesh = _mesh_from(cfg)
    case = case_general_p(cfg["p"])
    u, mult, report = solve(mesh, case.load, SolveConfig(p_target=case.p))
    write_vtk(os.path.join(out, "solution.vtk"), mesh, u, name="B")
    rows = []
    for i, s in enumerate(report.stages):
        rows.append((i, "x".join(str(d) for d in s.divisions), s.p, s.eps,
                     s.newton_iterations, s.linear_iterations,
                     s.final_residual, s.energy_history[-1]))
    write_csv(os.path.join(out, "report.csv"),
              ("stage", "divisions", "p", "eps", "newton_iter", "linear_iter",
               "residual", "energy"), rows)

    l2, curl_err = measure_error(u, case)
    return [
        f"case = {case.name}",
        f"divisions = {','.join(str(d) for d in cfg['divisions'])}",
        f"edges = {mesh.num_edges}",
        f"stages = {len(report.stages)}",
        f"total_newton_iterations = {report.total_newton_iterations}",
        f"total_linear_iterations = {report.total_linear_iterations}",
        f"final_relative_residual = {report.final_residual:.17g}",
        f"constraint = {report.constraint:.17g}",
        f"discarded_load_gradient_norm = {report.load_gradient_norm:.17g}",
        f"multiplier_max = {np.abs(mult.coeffs).max():.17g}",
        f"error_l2 = {l2:.17g}",
        f"error_curl_lp = {curl_err:.17g}",
        f"wall_time_s = {report.wall_time:.3f}",
    ]


def cmd_verify(cfg, out):
    seed = cfg["seed"]
    rows = [(r.inequality, r.p, r.delta, r.samples, r.worst_ratio,
             r.violations)
            for r in check_inequalities(cfg["p_grid"])]
    write_csv(os.path.join(out, "inequalities.csv"),
              ("inequality", "p", "delta", "samples", "worst_ratio",
               "violations"), rows)

    pair = default_smooth_pair()
    green_rows = []
    for n_div in cfg["green_levels"]:
        mesh = _mesh_from(cfg, divisions=(n_div, n_div, n_div))
        rd, rc = check_green_formulas(mesh, pair)
        green_rows.append((n_div, rd, rc))
    write_csv(os.path.join(out, "green.csv"),
              ("divisions", "div_residual", "curl_residual"), green_rows)

    # potential round trip on the configured mesh
    mesh = _mesh_from(cfg)
    rng = np.random.default_rng(seed)
    G = assemble_gradient_map(mesh)
    psi = rng.standard_normal(G.shape[1])
    grad_field = EdgeField(mesh, G @ psi)
    phi = extract_scalar_potential(grad_field)
    # the recovered potential is mean-zero, not boundary-zero: apply the
    # full edge-difference map, not the interior-column one
    diffs = phi.coeffs[mesh.edges[:, 1]] - phi.coeffs[mesh.edges[:, 0]]
    round_trip = float(np.abs(diffs - grad_field.coeffs).max())

    return [f"inequality_rows = {len(rows)}",
            f"total_violations = {sum(r[-1] for r in rows)}",
            f"potential_round_trip_max_err = {round_trip:.17g}"]


def cmd_friedrich(cfg, out):
    meshes = (build_box_mesh((n, n, n), extents=(np.pi, np.pi, np.pi))
              for n in cfg["levels"])
    rep = friedrich_constant(meshes, cfg["p"])
    levels = cfg["levels"]
    rows = []
    for i, (n, c, its, lin) in enumerate(zip(levels, rep.constants,
                                             rep.iterations,
                                             rep.linear_iterations)):
        order = ""
        # an order needs one refinement ratio r = n_i / n_(i-1) = n_(i-1) / n_(i-2)
        one_ratio = i >= 2 and levels[i - 1]**2 == n * levels[i - 2]
        if one_ratio and n != levels[i - 1]:
            e0 = abs(rep.constants[i - 1] - rep.constants[i - 2])
            e1 = abs(c - rep.constants[i - 1])
            if e1 > 0:
                order = "%.17g" % (np.log2(e0 / e1) / np.log2(n / levels[i - 1]))
        rows.append((i + 1, n, np.pi / n, c, order, its, lin))
    write_csv(os.path.join(out, "friedrich.csv"),
              ("level", "divisions", "h", "C_h", "observed_order",
               "iterations", "linear_iterations"), rows)
    lines = [f"p = {cfg['p']:.17g}",
             f"constants = {', '.join('%.17g' % c for c in rep.constants)}",
             f"extrapolated = {rep.extrapolated:.17g}"]
    if rep.lower_bound_only:
        # lower bounds have no convergence order to extrapolate with
        lines.append("extrapolation = none, the finest level's lower bound")
    return lines + [f"lower_bound_only = {rep.lower_bound_only}",
                    f"total_iterations = {sum(rep.iterations)}",
                    f"total_linear_iterations = {sum(rep.linear_iterations)}"]


def cmd_converge(cfg, out):
    case = case_general_p(cfg["p"])
    config = SolveConfig(p_target=case.p)
    rows = []
    prev = None
    for i, n in enumerate(cfg["levels"]):
        mesh = build_box_mesh((n, n, n), extents=(np.pi, np.pi, np.pi))
        u, _, rep = solve(mesh, case.load, config)
        l2, ce = measure_error(u, case)
        l2_order = curl_order = ""
        if prev is not None:
            l2_order = "%.17g" % np.log2(prev[0] / l2)
            curl_order = "%.17g" % np.log2(prev[1] / ce)
        rows.append((i + 1, n, np.pi / n, l2, ce, l2_order, curl_order,
                     rep.final_residual))
        prev = (l2, ce)
    write_csv(os.path.join(out, "converge.csv"),
              ("level", "divisions", "h", "l2_error", "curl_lp_error",
               "l2_order", "curl_order", "residual"), rows)
    return [f"case = {case.name}",
            f"levels = {','.join(str(n) for n in cfg['levels'])}",
            "errors_decreasing = %s" % all(
                rows[i][3] >= rows[i + 1][3] and rows[i][4] >= rows[i + 1][4]
                for i in range(len(rows) - 1))]


if __name__ == "__main__":
    sys.exit(main())
