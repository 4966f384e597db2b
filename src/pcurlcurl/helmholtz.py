"""Discrete Helmholtz splitting u = u0 + G(phi), u0 discretely divergence-free.

"Divergence-free" here means L2-orthogonality to every discrete gradient:
G^T M u0 = 0 with M the edge mass matrix. The splitting is M-orthogonal
regardless of the exponent p of the surrounding problem — the constraint
in the weak problem is linear, so any fixed pairing yields a valid
complement, and the L2 one makes the projection an SPD nodal solve.

The solve is direct: G phi interpolates grad phi_h, so G^T M G is the P1
stiffness, and on a Kuhn box mesh, whose tets are path simplices
(orthoscheme), that is the 7-point Laplacian sum_axis c_axis
tridiag(-1, 2, -1), c_x = h_y h_z / h_x and cyclic. Sine matrices
diagonalize it (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).
"""

from __future__ import annotations

import numpy as np

from .assembly import (EdgeField, NodalField, assemble_gradient_map,
                       gram_blocks, scatter_blocks)
from .mesh import LOCAL_EDGES, Mesh, MeshError


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


def mass_blocks(mesh: Mesh):
    """Edge-element mass blocks, shape (T, 6, 6), in closed form."""
    geom = mesh.geometry
    gram = gram_blocks(geom.grads)                      # (T, 4, 4)
    gram *= geom.vols[:, None, None]
    return (gram.reshape(-1, 16) @ _MASS_KERNEL).reshape(-1, 6, 6)


def edge_mass_matrix(mesh: Mesh):
    """Edge-element mass matrix M (free x free, SPD), in closed form."""
    return scatter_blocks(mesh, mass_blocks(mesh))


def _projector_matrices(mesh):
    """Build `mesh.projector_matrices`: M, G, G^T, the eigenvalues of
    G^T M G on the interior grid and one sine matrix per axis."""
    if mesh.divisions is None:
        raise MeshError("the Helmholtz projector needs a build_box_mesh mesh")
    d = np.array(mesh.divisions)
    h, ks = mesh.box[1] / d, [np.arange(1, n) for n in d]
    # j k mod 2 d keeps each sine's argument below 2 pi; 4 sin(x/2)^2 is
    # 2 - 2 cos(x) without the cancellation
    sines = [np.sqrt(2 / n) * np.sin(np.pi * (np.outer(k, k) % (2 * n)) / n)
             for n, k in zip(d, ks)]
    lam = [4 * np.sin(0.5 * np.pi * k / n) ** 2 * h[a - 2] * h[a - 1] / h[a]
           for a, (n, k) in enumerate(zip(d, ks))]
    G = assemble_gradient_map(mesh)[mesh.free_edges()]
    return (edge_mass_matrix(mesh), G, G.T.tocsr(),
            lam[0][:, None, None] + lam[1][:, None] + lam[2], *sines)


class DivFreeProjector:
    """M, G and G^T; the one solver of G^T M G phi = G^T b.

    M is the free x free mass matrix and G the free rows of the gradient
    map: a boundary edge's row of G is empty, so G^T M G is the same as
    over all edges. With the `sines` and G^T M G's eigenvalues `eig`,
    they are `mesh.projector_matrices`, built once per mesh (which needs
    `divisions`, or raises MeshError) and shared, read-only, by every
    projector of that mesh. `project` splits edge fields and
    `constraint_norm` measures them; both take fields with zero boundary
    circulations, the only fields the M block pairs. `strip_gradient`
    cleans functionals.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.M, self.G, self.Gt, self.eig, *self.sines = mesh.projector_matrices

    def project(self, u: EdgeField):
        """Split u into (u0, phi) with G^T M u0 = 0 up to rounding.

        A pure gradient goes wholly into phi and a divergence-free input
        comes back unchanged, up to rounding; the curl is kept exactly,
        since curl(G phi) = 0 holds edge by edge.

        Raises:
            ValueError: u belongs to another mesh or has a nonzero
                boundary circulation.
        """
        if u.mesh is not self.mesh:
            raise ValueError("edge field belongs to another mesh")
        x = self._free_coeffs(u.coeffs)
        phi = self._potential(self.Gt @ (self.M @ x))
        coeffs = u.coeffs.copy()
        coeffs[self.mesh.free_edges()] = x - self.G @ phi
        return EdgeField(self.mesh, coeffs), self._nodal(phi)

    def strip_gradient(self, b):
        """Remove the gradient part of b, a functional on the free edges.

        Returns (b - M G phi, phi) with G^T M G phi = G^T b; the result
        vanishes on every gradient of an interior potential.
        """
        phi = self._potential(self.Gt @ b)
        return b - self.M @ (self.G @ phi), self._nodal(phi)

    def constraint_norm(self, coeffs):
        """||G^T M u||_2 for raw edge coefficients with a zero boundary.

        Raises:
            ValueError: a nonzero boundary circulation.
        """
        x = self._free_coeffs(coeffs)
        return float(np.linalg.norm(self.Gt @ (self.M @ x)))

    def _free_coeffs(self, coeffs):
        if np.any(coeffs[self.mesh.boundary_edges]):
            raise ValueError("edge field has a nonzero boundary circulation")
        return coeffs[self.mesh.free_edges()]

    def _potential(self, rhs):
        """S(x)S(x)S (S(x)S(x)S rhs / eig): interior vertices ascend in C
        order over the interior grid, and each S is its own inverse."""
        if not np.all(np.isfinite(rhs)):
            raise ValueError("right-hand side contains non-finite entries")
        (sx, sy, sz), (a, b, c) = self.sines, self.eig.shape

        def sine(x):
            return (sy @ (sx @ x.reshape(a, b * c)).reshape(a, b, c)) @ sz
        return sine(sine(rhs) / self.eig).ravel()

    def _nodal(self, phi_int):
        phi = np.zeros(self.mesh.num_vertices)
        phi[self.mesh.interior_vertices()] = phi_int
        return NodalField(self.mesh, phi)
