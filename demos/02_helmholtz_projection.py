"""
Discrete Helmholtz splitting of an edge field
=============================================

Any tangential-trace-free edge field splits as u = u0 + grad(phi) with
u0 orthogonal to every discrete gradient in the mass pairing. The
splitting is exact in three checkable ways: the energies add up
(M-orthogonality), the curl passes through untouched, and projecting
twice changes nothing.
"""

import numpy as np

from pcurlcurl import EdgeField, build_box_mesh
from pcurlcurl.assembly import curl_per_tet
from pcurlcurl.helmholtz import DivFreeProjector

mesh = build_box_mesh((4, 4, 4))
proj = DivFreeProjector(mesh)
rng = np.random.default_rng(0)

u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
u0, phi = proj.project(u)

# M and G live on the free edges, where u, u0 and grad(phi) live
free = mesh.free_edges()
g = proj.G @ phi.coeffs[mesh.interior_vertices()]
norm = lambda v: np.sqrt(v @ (proj.M @ v))
print(f"||u||_M^2        = {norm(u.coeffs[free])**2:.10f}")
print(f"||u0||_M^2       = {norm(u0.coeffs[free])**2:.10f}")
print(f"||grad phi||_M^2 = {norm(g)**2:.10f}")
print(f"energy split defect: "
      f"{abs(norm(u.coeffs[free])**2 - norm(u0.coeffs[free])**2 - norm(g)**2):.2e}")

print(f"\nconstraint |G^T M u|  before: {proj.constraint_norm(u.coeffs):.3e}")
print(f"constraint |G^T M u0| after:  {proj.constraint_norm(u0.coeffs):.3e}")

curl_change = np.abs(curl_per_tet(u0) - curl_per_tet(u)).max()
print(f"curl change through projection: {curl_change:.2e}")

again, phi2 = proj.project(u0)
print(f"idempotency defect: "
      f"{np.linalg.norm(again.coeffs - u0.coeffs):.2e}, "
      f"second potential {np.linalg.norm(phi2.coeffs):.2e}")
