"""
The discrete Friedrich constant of the cube
===========================================

On divergence-free fields with zero tangential trace the L2 norm is
controlled by the curl norm: ||u|| <= C ||curl u||. On [0, pi]^3 the
best constant is 1/sqrt(2) (the lowest cavity eigenvalue is 2, attained
by (0, 0, sin x sin y) and its axis rotations). The discrete constants
converge from above at second order; Richardson extrapolation of the
last two levels recovers the cavity value to a fraction of a percent.
Rescaling the box scales the constant exactly linearly.
"""

import numpy as np

from pcurlcurl import build_box_mesh, friedrich_constant

PI = np.pi
levels = (2, 4, 8)
meshes = [build_box_mesh((n, n, n), extents=(PI, PI, PI)) for n in levels]
rep = friedrich_constant(meshes, 2.0)

target = 1.0 / np.sqrt(2.0)
print(f"{'n':>3} {'h':>10} {'C_h':>12} {'C_h - C*':>12}")
for n, c in zip(levels, rep.constants):
    print(f"{n:3d} {PI/n:10.5f} {c:12.8f} {c - target:12.2e}")
print(f"\nextrapolated: {rep.extrapolated:.8f}   target 1/sqrt(2) = {target:.8f}")
print(f"relative error {abs(rep.extrapolated - target)/target:.2e}")

m1 = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
m2 = build_box_mesh((3, 3, 3), extents=(2*PI, 2*PI, 2*PI))
c1 = friedrich_constant([m1], 2.0).constants[0]
c2 = friedrich_constant([m2], 2.0).constants[0]
print(f"\ndilation x2: C ratio = {c2/c1:.12f} (curl scales as 1/L, so "
      f"the constant scales as L)")

rep4 = friedrich_constant(meshes[:2], 4.0)
print(f"\np = 4 lower bounds by inverse power iteration: "
      f"{', '.join('%.5f' % c for c in rep4.constants)}")
