"""Discrete Helmholtz splitting u = u0 + G(phi), u0 discretely divergence-free.

"Divergence-free" here means L2-orthogonality to every discrete gradient:
G^T M u0 = 0 with M the edge mass matrix. The splitting is M-orthogonal
regardless of the exponent p of the surrounding problem — the constraint
in the weak problem is linear, so any fixed pairing yields a valid
complement, and the L2 one makes the projection an SPD nodal solve.
"""

from __future__ import annotations

import numpy as np

from .assembly import EdgeField, NodalField, assemble_gradient_map
from .linalg import cg, csr_matrix_from_coo
from .mesh import LOCAL_EDGES, Mesh


def _mass_kernel():
    """Fixed (16, 36) map from a tet's Gram matrix to its mass block.

    With m_ab = int lam_a lam_b / vol = (1 + delta_ab) / 20 and
    G = grad(lam) grad(lam)^T, the block of local edges (a, b), (c, d) is
    vol (m_ac G_bd - m_ad G_bc - m_bc G_ad + m_bd G_ac); row 4 x + y of
    the kernel holds the coefficient of G_xy.
    """
    m = (np.ones((4, 4)) + np.eye(4)) / 20.0
    K = np.zeros((4, 4, 6, 6))
    for k, (a, b) in enumerate(LOCAL_EDGES):
        for l, (c, d) in enumerate(LOCAL_EDGES):
            K[b, d, k, l] += m[a, c]
            K[b, c, k, l] -= m[a, d]
            K[a, d, k, l] -= m[b, c]
            K[a, c, k, l] += m[b, d]
    return K.reshape(16, 36)


_MASS_KERNEL = _mass_kernel()


def edge_mass_matrix(mesh: Mesh):
    """Edge-element mass matrix M (E x E, SPD), integrated in closed form."""
    geom = mesh.geometry
    gram = geom.grads @ geom.grads.transpose(0, 2, 1)   # (T, 4, 4)
    gram *= geom.vols[:, None, None]
    blocks = (gram.reshape(-1, 16) @ _MASS_KERNEL).reshape(-1, 6, 6)
    signs = mesh.tet_edge_signs
    blocks *= signs[:, :, None] * signs[:, None, :]
    e = mesh.tet_edges
    rows = np.repeat(e, 6, axis=1).ravel()
    cols = np.tile(e, (1, 6)).ravel()
    return csr_matrix_from_coo(rows, cols, blocks.ravel(),
                               (mesh.num_edges, mesh.num_edges))


class DivFreeProjector:
    """Caches M, G and G^T M G for repeated projections on one mesh."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.M = edge_mass_matrix(mesh)
        self.G = assemble_gradient_map(mesh)
        self.GtM = (self.G.T @ self.M).tocsr()
        self.GtMG = (self.GtM @ self.G).tocsr()

    def project(self, u: EdgeField, tol=1e-12, max_iter=None):
        """Split u into (u0, phi) with G^T M u0 = 0 up to solver tolerance.

        A pure gradient goes wholly into phi and a divergence-free input
        comes back unchanged, up to the CG tolerance; the curl is kept
        exactly, since curl(G phi) = 0 holds edge by edge.
        """
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
