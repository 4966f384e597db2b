"""Lowest-order edge-element basis on tetrahedra and simplex quadrature.

The basis attached to local edge (i, j) is W_ij = lam_i grad(lam_j) -
lam_j grad(lam_i), normalized so its circulation along edge i->j is 1 and
0 along every other edge. Its curl, 2 grad(lam_i) x grad(lam_j), is
constant per tet. That constancy matters for cost: any integrand built
solely from curls of edge fields is piecewise constant, so the 1-point
rule integrates the nonlinear residual and Jacobian curl terms *exactly*;
quadrature matters only for mass/load terms and non-polynomial field
norms, which all use the one degree-5 rule per simplex defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import LOCAL_EDGES, MeshError


@dataclass(frozen=True)
class CellGeometry:
    """Per-tet geometric data for basis evaluation.

    Attributes:
        vols: (T,) positive tet volumes.
        grads: (T, 4, 3) constant barycentric gradients grad(lam_i).
        curls: (T, 6, 3) constant curls of the 6 local edge functions,
            which are the global ones: local edges run as their global
            edges do (see `mesh`).
        flipped: (T,) bool, True where the tet's vertices, in stored
            order, are negatively oriented (det [v1-v0, v2-v0, v3-v0]
            < 0). No formula needs it; VTK output, which requires
            positive orientation, does.
    """

    vols: np.ndarray
    grads: np.ndarray
    curls: np.ndarray
    flipped: np.ndarray


def cell_geometry(mesh):
    """Precompute volumes, barycentric gradients, basis curls and the
    orientation of each tet.

    Raises:
        MeshError: if any tet is degenerate (zero volume).
    """
    v = mesh.vertices[mesh.tets]                      # (T, 4, 3)
    d = v[:, 1:] - v[:, :1]                           # (T, 3, 3)
    det = np.linalg.det(d)
    vols = np.abs(det) / 6.0
    if not np.all(vols > 0):        # NaN fails it too
        raise MeshError("degenerate tetrahedron: zero volume")
    inv = np.linalg.inv(d)                            # columns are grad lam_1..3
    grads = np.empty((mesh.num_tets, 4, 3))
    grads[:, 1:] = np.transpose(inv, (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    curls = np.empty((mesh.num_tets, 6, 3))
    for k, (i, j) in enumerate(LOCAL_EDGES):
        curls[:, k] = 2.0 * np.cross(grads[:, i], grads[:, j])
    return CellGeometry(vols=vols, grads=grads, curls=curls, flipped=det < 0)


@dataclass(frozen=True)
class QuadratureRule:
    """Simplex quadrature in barycentric coordinates.

    Weights are positive and sum to 1; callers scale by the simplex
    measure. The arrays are read-only: every caller shares one rule.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False
        self.weights.flags.writeable = False


def _orbit_s31(a):
    b = 1.0 - 3.0 * a
    pts = np.full((4, 4), a)
    np.fill_diagonal(pts, b)
    return pts


def _orbit_s22(a):
    b = 0.5 - a
    pts = []
    for i in range(4):
        for j in range(i + 1, 4):
            lam = [b, b, b, b]
            lam[i] = a
            lam[j] = a
            pts.append(lam)
    return np.array(pts)


def _orbit_s21(a):
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


# The symmetric positive 14-point tet rule, exact through degree 5 (the
# minimal 11-point degree-4 rule carries a negative weight, which would
# break positivity of quadrature norms and mass matrices). Its degree-5
# moment equations are solved to machine precision; exactness is pinned
# by the factorial moment formula in the test suite.
TET_RULE = QuadratureRule(
    points=np.vstack([
        _orbit_s31(0.31088591926329934),
        _orbit_s31(0.092735250310890249),
        _orbit_s22(0.045503704125654659),
    ]),
    weights=np.concatenate([
        np.full(4, 0.11268792571800983),
        np.full(4, 0.073493043116359957),
        np.full(6, 0.042546020777086767),
    ]))

# The classical symmetric 7-point triangle rule, exact through degree 5.
_S15 = np.sqrt(15.0)
TRIANGLE_RULE = QuadratureRule(
    points=np.vstack([np.full((1, 3), 1.0 / 3.0),
                      _orbit_s21((6.0 - _S15) / 21.0),
                      _orbit_s21((6.0 + _S15) / 21.0)]),
    weights=np.concatenate([[9.0 / 40.0],
                            np.full(3, (155.0 - _S15) / 1200.0),
                            np.full(3, (155.0 + _S15) / 1200.0)]))

# 4-point Gauss-Legendre rule on [0, 1] for edge circulations: `points`
# holds the parameter t along the edge, not barycentric coordinates. The
# values are numpy's `leggauss(4)` mapped to [0, 1], written out because
# computing them at import runs a LAPACK eigensolve that costs 0.7 MiB
# of resident memory.
GAUSS_SEGMENT = QuadratureRule(
    points=np.array([0.06943184420297371, 0.33000947820757187,
                     0.6699905217924281, 0.9305681557970262]),
    weights=np.array([0.17392742256872679, 0.3260725774312732,
                      0.3260725774312732, 0.17392742256872679]))
