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
from .linalg import SparseMatrix
from .mesh import LOCAL_EDGES, Mesh

# Local vertex slots (i, j) of each local edge, as index arrays.
_EDGE_I, _EDGE_J = np.array(LOCAL_EDGES).T


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


def curl_per_tet(u: EdgeField, geom=None):
    """Constant curl vector of the edge field on each tet, shape (T, 3).

    `geom` defaults to the mesh's cached geometry.
    """
    curls = (u.mesh.geometry if geom is None else geom).curls
    return tet_curls(local_coeffs(u), curls)


def local_coeffs(u: EdgeField, tets=slice(None)):
    """Coefficients of u signed to each tet's local edges, shape (n, 6).

    `tets` selects the tets (a slice or index array), all by default.
    """
    mesh = u.mesh
    return u.coeffs[mesh.tet_edges[tets]] * mesh.tet_edge_signs[tets]


def tet_curls(local, curls):
    """Per-tet curls (n, 3) from signed local coefficients (n, 6) and the
    tets' unsigned basis curls (n, 6, 3)."""
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
    out = np.bincount(mesh.tet_edges.ravel(), per_edge.ravel(), mesh.num_edges)
    return out[mesh.free_edges()] - load


def assemble_jacobian(u: EdgeField, p: PExponent):
    """Gateaux derivative of the residual, CSR over free x free edges.

    Symmetric positive semidefinite for p >= 2; equals the p = 2
    curl-curl stiffness matrix (independent of u) when p = 2.

    With g the curl on a tet, the power map's derivative is
    D = a I + b g g^T, a = m^((p-2)/2), b = (p-2) m^((p-4)/2) and
    m = eps^2 + |g|^2. With S the tet's signed basis curls, the element
    block vol S D S^T is then a vol S S^T + w w^T, w = sqrt(b vol) S g:
    the Gram matrix Z Z^T of the (6, 4) matrix Z = [sqrt(a vol) S, w].
    Where m = 0 (eps = 0 on a curl-free tet) the block is zero.
    """
    mesh = u.mesh
    if p.p == 2.0:
        return scatter_blocks(mesh, stiffness_blocks(mesh))
    geom, signs = mesh.geometry, mesh.tet_edge_signs
    g = curl_per_tet(u)
    msq = p.eps**2 + np.sum(g * g, axis=1)
    a = np.zeros_like(msq)
    b = np.zeros_like(msq)
    pos = msq > 0.0
    a[pos] = np.power(msq[pos], 0.5 * (p.p - 2.0))
    b[pos] = (p.p - 2.0) * np.power(msq[pos], 0.5 * (p.p - 4.0))
    Z = np.empty((mesh.num_tets, 6, 4))
    weights = signs * np.sqrt(a * geom.vols)[:, None]
    np.multiply(geom.curls, weights[:, :, None], out=Z[:, :, :3])
    np.matmul(geom.curls, g[:, :, None], out=Z[:, :, 3:])
    Z[:, :, 3] *= signs * np.sqrt(b * geom.vols)[:, None]
    return scatter_blocks(mesh, gram_blocks(Z))


def stiffness_blocks(mesh: Mesh):
    """p = 2 curl-curl element blocks vol S S^T, shape (T, 6, 6).

    S (6, 3) holds a tet's basis curls, signed to the global edges.
    """
    geom = mesh.geometry
    weights = mesh.tet_edge_signs * np.sqrt(geom.vols)[:, None]
    return gram_blocks(geom.curls * weights[:, :, None])


def gram_blocks(Z):
    """Z_t Z_t^T for every t, shape (T, n, n) from Z (T, n, k).

    numpy's batched matmul is ~3x faster on a contiguous transpose than
    on a transposed view.
    """
    return Z @ np.ascontiguousarray(Z.transpose(0, 2, 1))


def scatter_blocks(mesh: Mesh, blocks):
    """Sum (T, 6, 6) element blocks into canonical CSR over the free edges.

    The pattern, `mesh.free_pattern`, is fixed per mesh, so assembly
    only refills `data`: one bincount of the block entries into their
    slots, where an entry on a boundary row or column is dropped. The
    result shares the pattern's read-only index arrays and keeps every
    structural nonzero, exact zeros included.
    """
    pattern = mesh.free_pattern
    nnz = pattern.indices.size
    data = np.bincount(pattern.slot, blocks.ravel(), nnz + 1)[:nnz]
    n = pattern.indptr.size - 1
    out = SparseMatrix((data, pattern.indices, pattern.indptr), shape=(n, n))
    out.has_canonical_format = True
    return out


def assemble_gradient_map(mesh: Mesh):
    """Discrete gradient G (E x interior vertices): (G phi)_e = phi_hi - phi_lo.

    Columns are restricted to interior vertices (zero Dirichlet trace for
    the potentials), and curl(G phi) vanishes identically: composed with
    the edge curl this is the zero map. Row e holds -1 at col(lo) and +1
    at col(hi), already in column order since interior vertices are
    numbered in ascending order; a boundary edge's row is empty.
    """
    interior = mesh.interior_vertices()
    col = np.full(mesh.num_vertices, -1, dtype=np.int32)
    col[interior] = np.arange(interior.size, dtype=np.int32)
    ends = col[mesh.edges]                              # (E, 2): lo, hi
    kept = ends >= 0
    indptr = np.zeros(mesh.num_edges + 1, dtype=np.int32)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    vals = np.broadcast_to([-1.0, 1.0], ends.shape)[kept]
    out = SparseMatrix((vals, ends[kept], indptr),
                       shape=(mesh.num_edges, interior.size))
    out.has_canonical_format = True
    return out


def assemble_load(S, mesh: Mesh):
    """(S, W_i) over free edges by order-4 quadrature for an analytic S.

    Args:
        S: callable mapping (N, 3) points to (N, 3) vectors.
    """
    rule = whitney.quadrature(4)
    xq = whitney.quad_points_physical(mesh, rule)       # (T, nq, 3)
    Sq = np.asarray(S(xq.reshape(-1, 3)), dtype=float).reshape(xq.shape)
    if not np.all(np.isfinite(Sq)):
        raise ValueError("load function returned non-finite values")
    return edge_moments(mesh, rule, Sq)[mesh.free_edges()]


def edge_moments(mesh: Mesh, rule, values):
    """(F, W_e) for every global edge e, shape (E,), by quadrature.

    `values` (T, nq, 3) holds F at the points of `rule`. With
    B_i = vol sum_q w_q lam_qi F_q, the moment against the local edge
    (i, j) is B_i . grad(lam_j) - B_j . grad(lam_i): the transpose of
    `vertex_vectors`, with no per-point basis array.
    """
    geom = mesh.geometry
    B = (rule.weights * rule.points.T) @ values         # (T, 4, 3)
    B *= geom.vols[:, None, None]
    P = B @ geom.grads.transpose(0, 2, 1)               # P_ij = B_i . grad lam_j
    per_edge = P[:, _EDGE_I, _EDGE_J] - P[:, _EDGE_J, _EDGE_I]
    per_edge *= mesh.tet_edge_signs
    return np.bincount(mesh.tet_edges.ravel(), per_edge.ravel(), mesh.num_edges)


def edge_interpolate(func, mesh: Mesh):
    """Edge interpolant of an analytic field: DoFs are circulations.

    u_e = int_edge func . t ds, evaluated by 4-point Gauss quadrature
    along each straight edge.
    """
    t, w = whitney.gauss_segment(4)
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


def lp_norm_field(u: EdgeField, p):
    """||u||_Lp by order-4 quadrature of the Whitney reconstruction."""
    rule = whitney.quadrature(4)
    mag = np.linalg.norm(eval_field(u, rule), axis=2)
    total = np.einsum("t,q,tq->", u.mesh.geometry.vols, rule.weights, mag**p)
    return float(total ** (1.0 / p))


def vertex_vectors(u: EdgeField):
    """Per-tet vectors A (T, 4, 3) with u = sum_i lam_i A_i on each tet.

    A = C grad(lam), where C is the antisymmetric 4 x 4 matrix of the
    tet's signed local coefficients (C_ij = c_(i,j) for i < j): on a tet
    the Whitney field is linear in the barycentric coordinates, and A_i
    is its value at vertex i.
    """
    return tet_vertex_vectors(local_coeffs(u), u.mesh.geometry.grads)


def tet_vertex_vectors(local, grads):
    """`vertex_vectors` from signed local coefficients (n, 6) and the
    tets' barycentric gradients (n, 4, 3)."""
    C = np.zeros((local.shape[0], 4, 4))
    C[:, _EDGE_I, _EDGE_J] = local
    C[:, _EDGE_J, _EDGE_I] = -local
    return C @ grads


def eval_field(u: EdgeField, rule):
    """Whitney reconstruction of u at quadrature points, (T, nq, 3)."""
    return rule.points @ vertex_vectors(u)
