"""Lowest-order edge-element basis on tetrahedra and simplex quadrature.

The basis attached to local edge (i, j) is W_ij = lam_i grad(lam_j) -
lam_j grad(lam_i), normalized so its circulation along edge i->j is 1 and
0 along every other edge. Its curl, 2 grad(lam_i) x grad(lam_j), is
constant per tet. That constancy matters for cost: any integrand built
solely from curls of edge fields is piecewise constant, so the 1-point
rule integrates the nonlinear residual and Jacobian curl terms *exactly*;
quadrature order only matters for mass/load terms and non-polynomial
field norms.
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
    if np.any(vols <= 0):
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
    measure.
    """

    points: np.ndarray
    weights: np.ndarray


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


def quadrature(order):
    """Symmetric positive-weight tetrahedron rules.

    order 1: centroid; order 2: 4 points; order 4: 14 points (the rule is
    actually exact through degree 5 — the minimal 11-point degree-4 rule
    carries a negative weight, which would break positivity of quadrature
    norms and mass matrices, so the positive 14-point rule is used).

    Raises:
        ValueError: unsupported order.
    """
    if order == 1:
        pts = np.full((1, 4), 0.25)
        wts = np.array([1.0])
    elif order == 2:
        a = (5.0 - np.sqrt(5.0)) / 20.0
        pts = _orbit_s31(a)
        wts = np.full(4, 0.25)
    elif order == 4:
        # Degree-5 moment equations solved to machine precision; exactness
        # is pinned by the factorial moment formula in the test suite.
        pts = np.vstack([
            _orbit_s31(0.31088591926329934),
            _orbit_s31(0.092735250310890249),
            _orbit_s22(0.045503704125654659),
        ])
        wts = np.concatenate([
            np.full(4, 0.11268792571800983),
            np.full(4, 0.073493043116359957),
            np.full(6, 0.042546020777086767),
        ])
    else:
        raise ValueError(f"unsupported quadrature order {order}; use 1, 2 or 4")
    return QuadratureRule(points=pts, weights=wts)


def triangle_quadrature(order):
    """Symmetric positive-weight triangle rules (barycentric, weights sum 1).

    order 1: centroid; order 2: 3 edge midpoints; order 4: the classical
    7-point degree-5 rule.
    """
    if order == 1:
        pts = np.full((1, 3), 1.0 / 3.0)
        wts = np.array([1.0])
    elif order == 2:
        pts = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        wts = np.full(3, 1.0 / 3.0)
    elif order == 4:
        s = np.sqrt(15.0)
        a1 = (6.0 - s) / 21.0
        a2 = (6.0 + s) / 21.0
        w1 = (155.0 - s) / 1200.0
        w2 = (155.0 + s) / 1200.0

        def orbit(a):
            b = 1.0 - 2.0 * a
            return np.array([[b, a, a], [a, b, a], [a, a, b]])

        pts = np.vstack([np.full((1, 3), 1.0 / 3.0), orbit(a1), orbit(a2)])
        wts = np.concatenate([[9.0 / 40.0], np.full(3, w1), np.full(3, w2)])
    else:
        raise ValueError(f"unsupported triangle quadrature order {order}")
    return QuadratureRule(points=pts, weights=wts)


def gauss_segment(n):
    """Gauss-Legendre nodes/weights on [0, 1] (for edge circulations)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def quad_points_physical(mesh, rule):
    """Physical coordinates of quadrature points, shape (T, nq, 3)."""
    return rule.points @ mesh.vertices[mesh.tets]
