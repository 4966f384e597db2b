"""
Solving the power-law curl-curl problem and exporting the field
===============================================================

Manufactured setup on the box [0, pi]^3: the exact solution
u* = (0, 0, sin x sin y) is divergence-free with zero tangential trace,
and the load is chosen so u* solves

    curl( |curl u|^(p-2) curl u ) = S,   div u = 0,   n x u = 0.

We solve at p = 2 (linear) and p = 4 (degenerate nonlinear), compare
against u*, and write a legacy VTK file for ParaView.
"""

import numpy as np

from pcurlcurl import (SolveConfig, build_box_mesh, case_general_p,
                       case_p2_sine, measure_error, solve)
from pcurlcurl.io import write_vtk

PI = np.pi

mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
print(f"mesh: {mesh.num_tets} tets, {mesh.num_edges} edge DoFs "
      f"({mesh.free_edges().size} free)")

for case in (case_p2_sine(), case_general_p(4.0)):
    u, multiplier, report = solve(mesh, case.load,
                                  SolveConfig(p_target=case.p))
    l2, curl_err = measure_error(u, case)
    print(f"\ncase {case.name}:")
    print(f"  stages {len(report.stages)}, Newton steps "
          f"{report.total_newton_iterations}, "
          f"relative residual {report.final_residual:.2e}")
    print(f"  errors: L2 {l2:.4f}, curl-Lp {curl_err:.4f}")
    print(f"  multiplier max {np.abs(multiplier.coeffs).max():.2e} "
          f"(zero for compatible loads)")
    out = f"solution_{case.name}.vtk"
    write_vtk(out, mesh, u, name="B")
    print(f"  wrote {out}")
