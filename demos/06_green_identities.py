"""
Green's formulas under quadrature
=================================

The two integration-by-parts identities

    (u, grad v) + (div u, v) = boundary integral of (n . u) v
    (curl u, w) - (u, curl w) = boundary integral of (n x u) . w

hold exactly for smooth fields; evaluating both sides with the degree-5
volume and surface rules leaves a pure quadrature residual that shrinks
like h^6 per refinement. The test fields mix exponentials with
incommensurate frequencies on purpose: periodic integrands would be
integrated spectrally on a uniform mesh and the rate would be invisible.
"""

import numpy as np

from pcurlcurl import build_box_mesh, check_green_formulas, default_smooth_pair

PI = np.pi
pair = default_smooth_pair()

print(f"{'n':>3} {'div residual':>14} {'ratio':>7} {'curl residual':>14} {'ratio':>7}")
prev = None
for n in (2, 4, 8, 16):
    mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
    rd, rc = check_green_formulas(mesh, pair)
    t1 = f"{prev[0]/rd:7.1f}" if prev else "      -"
    t2 = f"{prev[1]/rc:7.1f}" if prev else "      -"
    print(f"{n:3d} {rd:14.3e} {t1} {rc:14.3e} {t2}")
    prev = (rd, rc)

print("\nboth identities converge at ~64x per refinement (order-6 "
      "composite quadrature of the degree-5 rules)")
