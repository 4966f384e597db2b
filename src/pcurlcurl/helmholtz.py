"""Discrete Helmholtz splitting u = u0 + G(phi), u0 discretely divergence-free.

"Divergence-free" here means L2-orthogonality to every discrete gradient:
G^T M u0 = 0 with M the edge mass matrix. The splitting is M-orthogonal
regardless of the exponent p of the surrounding problem — the constraint
in the weak problem is linear, so any fixed pairing yields a valid
complement, and the L2 one makes the projection an SPD nodal solve.
"""

from __future__ import annotations

import numpy as np

from . import whitney
from .assembly import EdgeField, NodalField, assemble_gradient_map
from .linalg import cg, csr_matrix_from_coo
from .mesh import Mesh


def edge_mass_matrix(mesh: Mesh, geom=None):
    """Edge-element mass matrix M (E x E, SPD), order-2 quadrature (exact)."""
    if geom is None:
        geom = whitney.cell_geometry(mesh)
    rule = whitney.quadrature(2)
    W = whitney.eval_basis(geom, rule.points)           # (T, nq, 6, 3)
    blocks = np.einsum("q,tqec,tqfc->tef", rule.weights, W, W)
    blocks *= geom.vols[:, None, None]
    signs = mesh.tet_edge_signs
    blocks *= signs[:, :, None] * signs[:, None, :]
    e = mesh.tet_edges
    rows = np.repeat(e, 6, axis=1).ravel()
    cols = np.tile(e, (1, 6)).ravel()
    return csr_matrix_from_coo(rows, cols, blocks.ravel(),
                               (mesh.num_edges, mesh.num_edges))


class DivFreeProjector:
    """Caches M, G and G^T M G for repeated projections on one mesh."""

    def __init__(self, mesh: Mesh, geom=None):
        self.mesh = mesh
        self.M = edge_mass_matrix(mesh, geom)
        self.G = assemble_gradient_map(mesh)
        self.GtM = (self.G.T @ self.M).tocsr()
        self.GtMG = (self.GtM @ self.G).tocsr()

    def project(self, u: EdgeField, tol=1e-12, max_iter=None):
        """Split u into (u0, phi) with G^T M u0 = 0 up to solver tolerance."""
        rhs = self.GtM @ u.coeffs
        phi_int, report = cg(self.GtMG, rhs, tol=tol, max_iter=max_iter)
        if not report.converged:
            raise RuntimeError(
                f"divergence-free projection CG stalled at relative residual "
                f"{report.relative_residual:.3e} after {report.iterations} iterations")
        u0 = u.coeffs - self.G @ phi_int
        phi = np.zeros(self.mesh.num_vertices)
        phi[self.mesh.interior_vertices()] = phi_int
        return EdgeField(self.mesh, u0), NodalField(self.mesh, phi)

    def constraint_norm(self, coeffs):
        """||G^T M u||_2 for raw edge coefficients."""
        return float(np.linalg.norm(self.GtM @ coeffs))


def project_div_free(u: EdgeField, tol=1e-12, max_iter=None, projector=None):
    """Convenience wrapper building the operators per call.

    The gradient part of the split captures pure gradient inputs exactly
    (up to CG tolerance) and leaves already divergence-free inputs
    untouched; curl coefficients are preserved identically since
    curl(G phi) = 0 holds edge-exactly.
    """
    if projector is None:
        projector = DivFreeProjector(u.mesh)
    return projector.project(u, tol=tol, max_iter=max_iter)
