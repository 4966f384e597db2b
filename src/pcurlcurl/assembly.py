"""Discrete fields, the nonlinear curl-curl residual and its Jacobian.

The residual of the weak problem is

    R_i(u) = int_Omega (eps^2 + |curl u|^2)^((p-2)/2) curl u . curl W_i
             - int_Omega S . W_i

over free (non-boundary) edges. Since curls of edge fields are piecewise
constant, the first integral is evaluated *exactly* tet by tet with no
quadrature; only load and mass terms need a rule. The eps term is a
regularization of the pure power law |g|^(p-2) g: without it the Jacobian
vanishes on tets where the curl does, which stalls Newton for p > 2.

The law is stated once, in `PExponent.weight`. The residual and the
Jacobian see u only through its per-tet curls, so they take those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SparseMatrix
from .mesh import _EDGE_I, _EDGE_J, Mesh
from .whitney import GAUSS_SEGMENT, TET_RULE

# Tets per block of the streamed quadrature sums (`edge_moments`,
# `lp_norm_field`, `mms.measure_error`): a block's (n, nq, 3) arrays at
# `TET_RULE` are 2.75 MiB each. At 32^3, 4096 and 8192 time alike;
# 16384 is ~10% slower.
_BLOCK_TETS = 8192

# Row k sends local coefficient c_k of edge (i, j) to C_ij = c_k and
# C_ji = -c_k of the flattened antisymmetric 4 x 4 matrix C.
_SIGNS = np.eye(16)[4 * _EDGE_I + _EDGE_J] - np.eye(16)[4 * _EDGE_J + _EDGE_I]


@dataclass(frozen=True)
class PExponent:
    """Power-law exponent 2 <= p < inf, its conjugate q and regularization eps."""

    p: float
    eps: float = 0.0

    def __post_init__(self):
        if not 2.0 <= self.p < np.inf:      # NaN fails it too
            raise ValueError(f"exponent p must be finite and >= 2, got {self.p}")
        if not 0.0 <= self.eps < np.inf:    # NaN fails it too
            raise ValueError(
                f"regularization eps must be finite and >= 0, got {self.eps}")

    @property
    def q(self):
        return self.p / (self.p - 1.0)

    def weight(self, gsq):
        """(eps^2 + gsq)^((p-2)/2) at gsq = |g|^2, the one statement of the
        law: flux weight * g, energy density weight * (eps^2 + gsq) / p."""
        return np.power(self.eps**2 + gsq, 0.5 * (self.p - 2.0))


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

    For p = 2 this is the identity regardless of eps, bit for bit, since
    x ** 0.0 is 1.0 for every x, 0, inf and NaN included. For p > 2 and
    eps = 0 it is continuous at g = 0 with value 0.
    """
    g = np.asarray(g, dtype=float)
    return p.weight(np.sum(g * g, axis=-1, keepdims=True)) * g


def curl_per_tet(u: EdgeField, geom=None):
    """Constant curl vector of the edge field on each tet, shape (T, 3).

    `geom` defaults to the mesh's cached geometry.
    """
    curls = (u.mesh.geometry if geom is None else geom).curls
    return tet_curls(local_coeffs(u), curls)


def local_coeffs(u: EdgeField, tets=slice(None)):
    """Coefficients of u on each tet's local edges, shape (n, 6).

    `tets` selects the tets (a slice or index array), all by default.
    """
    return u.coeffs[u.mesh.tet_edges[tets]]


def tet_curls(local, curls):
    """Per-tet curls (n, 3) from local coefficients (n, 6) and the tets'
    basis curls (n, 6, 3)."""
    return np.einsum("te,tec->tc", local, curls)


def assemble_residual(mesh: Mesh, g, load, p: PExponent):
    """Residual over free edges: power-law curl term minus the load.

    `g` is `curl_per_tet(u)` and `load` the load vector over free edges
    (see assemble_load). The curl term is integrated exactly (piecewise
    constant integrand, see module docstring).
    """
    if not np.all(np.isfinite(g)):
        raise ValueError("edge field has non-finite curls")
    geom = mesh.geometry
    flux = power_map(g, p) * geom.vols[:, None]
    per_edge = np.einsum("tc,tec->te", flux, geom.curls)
    out = np.bincount(mesh.tet_edges.ravel(), per_edge.ravel(), mesh.num_edges)
    return out[mesh.free_edges()] - load


def assemble_jacobian(mesh: Mesh, g, p: PExponent):
    """Gateaux derivative of the residual at curls g, CSR over free edges.

    Symmetric positive semidefinite for p >= 2. At p = 2 it does not
    depend on g and is `mesh.stiffness`, shared and read-only.

    With g the curl on a tet, the power map's derivative is
    D = a I + b g g^T, a = p.weight(|g|^2), b = (p-2) a / m and
    m = eps^2 + |g|^2. With S the tet's basis curls, the element
    block vol S D S^T is then a vol S S^T + w w^T, w = sqrt(b vol) S g:
    the Gram matrix Z Z^T of the (6, 4) matrix Z = [sqrt(a vol) S, w].
    Where m = 0 (eps = 0 on a curl-free tet) the block is zero.
    """
    if p.p == 2.0:
        return mesh.stiffness
    geom = mesh.geometry
    gsq = np.sum(g * g, axis=1)
    a = p.weight(gsq)                   # 0 where m = 0, since p > 2
    m = p.eps**2 + gsq
    b = np.divide((p.p - 2.0) * a, m, out=np.zeros_like(m), where=m > 0.0)
    Z = np.empty((mesh.num_tets, 6, 4))
    np.multiply(geom.curls, np.sqrt(a * geom.vols)[:, None, None],
                out=Z[:, :, :3])
    np.matmul(geom.curls, g[:, :, None], out=Z[:, :, 3:])
    Z[:, :, 3] *= np.sqrt(b * geom.vols)[:, None]
    return scatter_blocks(mesh, gram_blocks(Z))


def stiffness_blocks(mesh: Mesh):
    """p = 2 curl-curl element blocks vol S S^T, shape (T, 6, 6).

    S (6, 3) holds a tet's basis curls.
    """
    geom = mesh.geometry
    return gram_blocks(geom.curls * np.sqrt(geom.vols)[:, None, None])


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
    """(S, W_i) over free edges by `TET_RULE` quadrature for an analytic S.

    Args:
        S: callable mapping (N, 3) points to (N, 3) vectors.
    """
    def values_at(tets):
        xq = TET_RULE.points @ mesh.vertices[mesh.tets[tets]]   # (n, nq, 3)
        Sq = np.asarray(S(xq.reshape(-1, 3)), dtype=float).reshape(xq.shape)
        if not np.all(np.isfinite(Sq)):
            raise ValueError("load function returned non-finite values")
        return Sq

    return edge_moments(mesh, values_at)


def edge_moments(mesh: Mesh, values_at):
    """(F, W_e) for every free edge e, by quadrature over blocks of tets.

    `values_at(tets)` returns F (n, nq, 3) at the points of `TET_RULE`
    on the tets `tets`, a slice of at most _BLOCK_TETS. With
    B_i = vol sum_q w_q lam_qi F_q, the moment against the local edge
    (i, j) is B_i . grad(lam_j) - B_j . grad(lam_i): the transpose of
    `vertex_vectors`, with no per-point basis array. One bincount in tet
    order sums the (T, 6) per-tet terms, so every block size gives the
    same bits.
    """
    geom = mesh.geometry
    wp = TET_RULE.weights * TET_RULE.points.T           # (4, nq)
    per_tet = np.empty((mesh.num_tets, 6))
    for s in range(0, mesh.num_tets, _BLOCK_TETS):
        tets = slice(s, s + _BLOCK_TETS)
        B = wp @ values_at(tets)                        # (n, 4, 3)
        B *= geom.vols[tets, None, None]
        P = B @ geom.grads[tets].transpose(0, 2, 1)     # P_ij = B_i . grad lam_j
        per_tet[tets] = P[:, _EDGE_I, _EDGE_J] - P[:, _EDGE_J, _EDGE_I]
    return np.bincount(mesh.tet_edges.ravel(), per_tet.ravel(),
                       mesh.num_edges)[mesh.free_edges()]


def edge_interpolate(func, mesh: Mesh):
    """Edge interpolant of an analytic field: DoFs are circulations.

    u_e = int_edge func . t ds, evaluated by 4-point Gauss quadrature
    along each straight edge.
    """
    t, w = GAUSS_SEGMENT.points, GAUSS_SEGMENT.weights
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
    """||u||_Lp by `TET_RULE` quadrature of the Whitney reconstruction.

    Summed over blocks of _BLOCK_TETS tets in block order, so no
    (T, nq, 3) array is made.
    """
    vols = u.mesh.geometry.vols
    total = 0.0
    for s in range(0, u.mesh.num_tets, _BLOCK_TETS):
        tets = slice(s, s + _BLOCK_TETS)
        vals = field_at(u, tets)
        total += float(vols[tets] @ (_norm_power(vals, p) @ TET_RULE.weights))
    return float(total ** (1.0 / p))


def _norm_power(v, p):
    """|v|^p over the trailing 3-vectors of v, with |v|^2 summed as
    x*x + y*y + z*z."""
    x, y, z = np.moveaxis(v, -1, 0)
    return (x * x + y * y + z * z) ** (0.5 * p)


def vertex_vectors(u: EdgeField):
    """Per-tet vectors A (T, 4, 3) with u = sum_i lam_i A_i on each tet.

    A = C grad(lam), where C is the antisymmetric 4 x 4 matrix of the
    tet's local coefficients (C_ij = c_(i,j) for i < j): on a tet
    the Whitney field is linear in the barycentric coordinates, and A_i
    is its value at vertex i.
    """
    return tet_vertex_vectors(local_coeffs(u), u.mesh.geometry.grads)


def tet_vertex_vectors(local, grads):
    """`vertex_vectors` from local coefficients (n, 6) and the
    tets' barycentric gradients (n, 4, 3)."""
    return (local @ _SIGNS).reshape(-1, 4, 4) @ grads


def field_at(u: EdgeField, tets):
    """Whitney reconstruction of u at `TET_RULE`'s points on `tets`,
    (n, nq, 3)."""
    return TET_RULE.points @ tet_vertex_vectors(local_coeffs(u, tets),
                                                u.mesh.geometry.grads[tets])
