"""Discrete fields, the nonlinear curl-curl residual and its Jacobian.

The residual of the weak problem is

    R_i(u) = int_Omega (eps^2 + |curl u|^2)^((p-2)/2) curl u . curl W_i
             - int_Omega S . W_i

over free (non-boundary) edges. Since curls of edge fields are piecewise
constant, the first integral is evaluated *exactly* tet by tet with no
quadrature; only load and mass terms need a rule. The eps term is a
regularization of the pure power law |g|^(p-2) g: without it the Jacobian
vanishes on tets where the curl does, which stalls Newton for p > 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import whitney
from .linalg import csr_matrix_from_coo
from .mesh import Mesh


@dataclass(frozen=True)
class PExponent:
    """Power-law exponent p >= 2, its conjugate q and regularization eps."""

    p: float
    eps: float = 0.0

    def __post_init__(self):
        if self.p < 2.0:
            raise ValueError(f"exponent p must be >= 2, got {self.p}")
        if self.eps < 0.0:
            raise ValueError(f"regularization eps must be >= 0, got {self.eps}")

    @property
    def q(self):
        return self.p / (self.p - 1.0)


@dataclass
class EdgeField:
    """Coefficients over global edges (circulation DoFs) tied to a mesh.

    Boundary-constrained fields keep zeros on `mesh.boundary_edges`,
    which is the discrete form of the zero-tangential-trace condition.
    """

    mesh: Mesh
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.coeffs is None:
            self.coeffs = np.zeros(self.mesh.num_edges)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.mesh.num_edges,):
            raise ValueError("coefficient length must equal number of edges")

    def zero_boundary(self):
        """Return a copy with boundary-edge circulations set to zero."""
        c = self.coeffs.copy()
        c[self.mesh.boundary_edges] = 0.0
        return EdgeField(self.mesh, c)

    def boundary_ok(self, tol=0.0):
        return np.all(np.abs(self.coeffs[self.mesh.boundary_edges]) <= tol)


@dataclass
class NodalField:
    """Coefficients over global vertices (continuous piecewise-linear)."""

    mesh: Mesh
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.coeffs is None:
            self.coeffs = np.zeros(self.mesh.num_vertices)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.mesh.num_vertices,):
            raise ValueError("coefficient length must equal number of vertices")


def power_map(g, p: PExponent):
    """(eps^2 + |g|^2)^((p-2)/2) g, elementwise over trailing 3-vectors.

    For p = 2 this is the identity regardless of eps. For p > 2 and
    eps = 0 it is continuous at g = 0 with value 0.
    """
    g = np.asarray(g, dtype=float)
    if p.p == 2.0:
        return g.copy()
    msq = p.eps**2 + np.sum(g * g, axis=-1, keepdims=True)
    return np.power(msq, 0.5 * (p.p - 2.0)) * g


def power_map_derivative(g, p: PExponent):
    """Jacobian of power_map w.r.t. g: 3x3 tensors over trailing axis.

    D = m^((p-2)/2) I + (p-2) m^((p-4)/2) g g^T with m = eps^2 + |g|^2.
    Both terms are PSD for p >= 2. Where m = 0 (eps = 0 on a curl-free
    tet) the derivative degenerates to the zero block.
    """
    g = np.asarray(g, dtype=float)
    eye = np.eye(3)
    if p.p == 2.0:
        return np.broadcast_to(eye, g.shape + (3,)).copy()
    msq = p.eps**2 + np.sum(g * g, axis=-1)
    out = np.zeros(g.shape + (3,))
    pos = msq > 0.0
    gp = g[pos]
    mp = msq[pos]
    out[pos] = (np.power(mp, 0.5 * (p.p - 2.0))[:, None, None] * eye
                + (p.p - 2.0) * np.power(mp, 0.5 * (p.p - 4.0))[:, None, None]
                * gp[:, :, None] * gp[:, None, :])
    return out


def curl_per_tet(u: EdgeField, geom=None):
    """Constant curl vector of the edge field on each tet, shape (T, 3).

    `geom` defaults to the mesh's cached geometry.
    """
    mesh = u.mesh
    curls = (mesh.geometry if geom is None else geom).curls
    local = u.coeffs[mesh.tet_edges] * mesh.tet_edge_signs
    return np.einsum("te,tec->tc", local, curls)


def assemble_residual(u: EdgeField, load, p: PExponent):
    """Residual over free edges: power-law curl term minus the load.

    `load` is the assembled load vector over free edges (see
    assemble_load). The curl term is integrated exactly (piecewise
    constant integrand, see module docstring).
    """
    if not np.all(np.isfinite(u.coeffs)):
        raise ValueError("edge field contains non-finite coefficients")
    mesh = u.mesh
    geom = mesh.geometry
    g = curl_per_tet(u)
    flux = power_map(g, p) * geom.vols[:, None]
    per_edge = np.einsum("tc,tec->te", flux, geom.curls) * mesh.tet_edge_signs
    out = np.zeros(mesh.num_edges)
    np.add.at(out, mesh.tet_edges.ravel(), per_edge.ravel())
    return out[mesh.free_edges()] - load


def assemble_jacobian(u: EdgeField, p: PExponent):
    """Gateaux derivative of the residual, CSR over free x free edges.

    Symmetric positive semidefinite for p >= 2; equals the p = 2
    curl-curl stiffness matrix (independent of u) when p = 2.
    """
    mesh = u.mesh
    geom = mesh.geometry
    g = curl_per_tet(u)
    D = power_map_derivative(g, p)                      # (T, 3, 3)
    signed = geom.curls * mesh.tet_edge_signs[:, :, None]
    blocks = np.einsum("t,tec,tcd,tfd->tef", geom.vols, signed, D, signed,
                       optimize=True)
    return _scatter_blocks(mesh, blocks)


def stiffness_matrix(mesh: Mesh):
    """p = 2 curl-curl stiffness over ALL edges (E x E CSR)."""
    geom = mesh.geometry
    signed = geom.curls * mesh.tet_edge_signs[:, :, None]
    blocks = np.einsum("t,tec,tfc->tef", geom.vols, signed, signed)
    e = mesh.tet_edges
    rows = np.repeat(e, 6, axis=1).ravel()
    cols = np.tile(e, (1, 6)).ravel()
    return csr_matrix_from_coo(rows, cols, blocks.ravel(),
                               (mesh.num_edges, mesh.num_edges))


def _scatter_blocks(mesh, blocks):
    """Scatter (T, 6, 6) element blocks into free x free CSR."""
    free = mesh.free_edges()
    pos = -np.ones(mesh.num_edges, dtype=np.int64)
    pos[free] = np.arange(free.size)
    e = pos[mesh.tet_edges]                             # (T, 6), -1 on boundary
    rows = np.repeat(e, 6, axis=1).ravel()
    cols = np.tile(e, (1, 6)).ravel()
    vals = blocks.ravel()
    keep = (rows >= 0) & (cols >= 0)
    return csr_matrix_from_coo(rows[keep], cols[keep], vals[keep],
                               (free.size, free.size))


def assemble_gradient_map(mesh: Mesh):
    """Discrete gradient G (E x interior vertices): (G phi)_e = phi_hi - phi_lo.

    Columns are restricted to interior vertices (zero Dirichlet trace for
    the potentials), and curl(G phi) vanishes identically: composed with
    the edge curl this is the zero map.
    """
    interior = mesh.interior_vertices()
    col = -np.ones(mesh.num_vertices, dtype=np.int64)
    col[interior] = np.arange(interior.size)
    lo = col[mesh.edges[:, 0]]
    hi = col[mesh.edges[:, 1]]
    e = np.arange(mesh.num_edges)
    rows = np.concatenate([e[hi >= 0], e[lo >= 0]])
    cols = np.concatenate([hi[hi >= 0], lo[lo >= 0]])
    vals = np.concatenate([np.ones(np.sum(hi >= 0)), -np.ones(np.sum(lo >= 0))])
    return csr_matrix_from_coo(rows, cols, vals,
                               (mesh.num_edges, interior.size))


def assemble_load(S, mesh: Mesh, quad_order=2):
    """(S, W_i) over free edges by quadrature for an analytic S.

    Args:
        S: callable mapping (N, 3) points to (N, 3) vectors.
        quad_order: tet rule order (2 is exact for Whitney-polynomial
            integrands; 4 for smooth analytic loads).
    """
    geom = mesh.geometry
    rule = whitney.quadrature(quad_order)
    xq = whitney.quad_points_physical(mesh, rule)       # (T, nq, 3)
    Sq = np.asarray(S(xq.reshape(-1, 3)), dtype=float).reshape(xq.shape)
    if not np.all(np.isfinite(Sq)):
        raise ValueError("load function returned non-finite values")
    W = whitney.eval_basis(geom, rule.points)           # (T, nq, 6, 3)
    per_edge = np.einsum("q,tqc,tqec->te", rule.weights, Sq, W)
    per_edge *= geom.vols[:, None]
    per_edge *= mesh.tet_edge_signs
    out = np.zeros(mesh.num_edges)
    np.add.at(out, mesh.tet_edges.ravel(), per_edge.ravel())
    return out[mesh.free_edges()]


def edge_interpolate(func, mesh: Mesh, n_gauss=4):
    """Edge interpolant of an analytic field: DoFs are circulations.

    u_e = int_edge func . t ds, evaluated by Gauss quadrature along each
    straight edge (exact for constants with any n_gauss >= 1).
    """
    t, w = whitney.gauss_segment(n_gauss)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    tang = b - a                                        # lo -> hi, length included
    pts = a[:, None, :] + t[None, :, None] * tang[:, None, :]
    vals = np.asarray(func(pts.reshape(-1, 3)), dtype=float).reshape(pts.shape)
    return EdgeField(mesh, np.einsum("q,eqc,ec->e", w, vals, tang))


def lp_norm_curl(u: EdgeField, p):
    """||curl u||_Lp, exact (piecewise-constant integrand)."""
    mag = np.linalg.norm(curl_per_tet(u), axis=1)
    return float(np.sum(u.mesh.geometry.vols * mag**p) ** (1.0 / p))


def lp_norm_field(u: EdgeField, p, quad_order=4):
    """||u||_Lp by quadrature of the Whitney reconstruction."""
    rule = whitney.quadrature(quad_order)
    mag = np.linalg.norm(eval_field(u, rule), axis=2)
    total = np.einsum("t,q,tq->", u.mesh.geometry.vols, rule.weights, mag**p)
    return float(total ** (1.0 / p))


def eval_field(u: EdgeField, rule):
    """Whitney reconstruction of u at quadrature points, (T, nq, 3)."""
    mesh = u.mesh
    W = whitney.eval_basis(mesh.geometry, rule.points)
    local = u.coeffs[mesh.tet_edges] * mesh.tet_edge_signs
    return np.einsum("te,tqec->tqc", local, W)
