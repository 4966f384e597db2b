"""
Continuation to engineering exponents p up to 100
=================================================

Superconductor resistivity models use exponents between 5 and 100.
Newton from scratch at such p is hopeless (the Jacobian degenerates
wherever the curl is small), so the solver solves p = 2 first and ramps
p geometrically from there. Each stage starts from the previous answer
scaled to the energy minimizer on its ray, and solves at one
regularization eps, set from the p = 2 answer alone.

Float64 puts a hard limit on eps: the Jacobian weights span
(max|curl|/eps)^(p-2), and past roughly 10^20 the Newton linear solves
break down. The solver therefore keeps eps at least 10^(-12/(p-2)) times
the largest curl of the p = 2 shape, and each Newton step is a
Jacobi-preconditioned CG solve on all free edges, after the gradient
part of its right-hand side has been removed. With that, the whole range
runs out of the box. The solution field flattens toward a
|curl| ~ const state as p grows, the signature of the p -> infinity
(critical-state / Bean) limit.
"""

import numpy as np

from pcurlcurl import SolveConfig, build_box_mesh, case_general_p, solve
from pcurlcurl.assembly import curl_per_tet

PI = np.pi
mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))

print(f"{'p':>5} {'stages':>7} {'newton':>7} {'residual':>11} "
      f"{'final eps':>11} {'|curl| range':>18}")
for p in (5.0, 10.0, 20.0, 50.0, 100.0):
    case = case_general_p(p)
    u, _, rep = solve(mesh, case.load, SolveConfig(p_target=p))
    g = np.linalg.norm(curl_per_tet(u), axis=1)
    print(f"{p:5g} {len(rep.stages):7d} {rep.total_newton_iterations:7d} "
          f"{rep.final_residual:11.2e} {rep.stages[-1].eps:11.2e} "
          f"[{g.min():6.3f}, {g.max():6.3f}]")

print("\nenergy was monotone within every stage (backtracking line search "
      "on the convex energy)")
