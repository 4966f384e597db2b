"""Structured tetrahedral meshes of axis-aligned boxes.

Each grid cube is split into 6 tetrahedra sharing the cube's main diagonal
(Kuhn split). Every tet stores its vertex indices in ascending order and
every edge is stored once, directed from its lower to its higher global
vertex index, so each local edge (i, j), i < j, runs the way its global
edge does and no orientation sign enters any formula (Rognes, Kirby &
Logg, SIAM J. Sci. Comput. 31, 2009). A tet's orientation is therefore
arbitrary; only VTK output needs it (`whitney.CellGeometry.flipped`).

One rule decides what lies on the boundary: a vertex, edge or tet face
is on the box surface when all its vertices lie on one of the box's six
planes (`_on_boundary`, `boundary_faces`).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# Local edges of a tetrahedron (pairs of local vertex slots), fixed order.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Local vertex slots (i, j) of each local edge, as index arrays.
_EDGE_I, _EDGE_J = np.array(LOCAL_EDGES).T

# A box mesh with even divisions has a coarse mesh at half of them, down
# to this many divisions per axis.
COARSEST_DIVISIONS = 3

# Tets whose block entries are looked up at once while numbering a
# pattern: bounds that build's (chunk * 36) temporaries.
_PATTERN_CHUNK = 2**16


class MeshError(ValueError):
    """Invalid mesh construction parameters or corrupt topology."""


class CSRPattern(NamedTuple):
    """Canonical CSR structure of an assembled edge matrix and its scatter map.

    `indptr` and `indices` are int32, with sorted and unique columns in
    each row. `slot` (T * 36,) int32 sends entry 6 a + b of tet t's
    (6, 6) element block, at flat position 36 t + 6 a + b, to its place
    in `data`; the value nnz marks a dropped entry (a boundary row or
    column). All three arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray


class Mesh:
    """Tetrahedral box mesh with oriented-edge connectivity.

    Attributes:
        vertices: (V, 3) float array of coordinates.
        tets: (T, 4) int array of vertex indices, ascending in each row.
        edges: (E, 2) int array, each row (lo, hi) with lo < hi.
        tet_edges: (T, 6) int array of global edge indices, local order
            per LOCAL_EDGES; each local edge has its global direction.
        boundary_edges: sorted int array of edge indices on the box surface.
        boundary_vertices: sorted int array of vertex indices on the surface.
        box: (origin, extents) pair of float triples.
        divisions: the (nx, ny, nz) grid of a `build_box_mesh` mesh, None
            for a mesh built from raw arrays.
        geometry: the whitney.CellGeometry of the tets, computed on first
            access and cached, with read-only arrays.
        free_pattern: the CSRPattern of every edge matrix, free x free,
            built on first access and cached; `assembly.scatter_blocks`
            refills its `data`.
        coarse: the Kuhn mesh of the same box at half the divisions, or
            None unless every division is even and its half is at least
            COARSEST_DIVISIONS; cached.
        prolongation: the free x free matrix P (fine rows, coarse
            columns) that carries a coarse edge field onto this mesh
            exactly, None without a coarse mesh; cached, read-only.
        projector_matrices: M, G, G^T, the eigenvalues of G^T M G and
            the sine matrices of the Helmholtz projector, built by
            `helmholtz` (MeshError without `divisions`); cached, read-only.
        stiffness: the p = 2 curl-curl stiffness, free x free, exact
            zeros dropped; cached, read-only.

    Instances are immutable by convention, and every array above is
    read-only.
    """

    def __init__(self, vertices, tets, box, divisions=None):
        self.divisions = divisions
        # a view: np.asarray may return the caller's array, which stays writable
        self.vertices = np.asarray(vertices, dtype=float).view()
        self.tets = np.sort(np.asarray(tets, dtype=np.int64), axis=1)
        self.box = tuple(np.array(b, dtype=float) for b in box)
        self._build_edges()
        on_edge, on_vertex = _on_boundary(self)
        (self.boundary_edges, self.boundary_vertices, self._free_edges,
         self._interior_vertices) = _read_only(*map(np.flatnonzero, (
             on_edge, on_vertex, ~on_edge, ~on_vertex)))
        _read_only(self.vertices, self.tets, *self.box, self.edges, self.tet_edges)

    # -- derived sizes ----------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @cached_property
    def geometry(self):
        # Lazy: a mesh used only for interpolation or output never pays.
        from . import whitney
        geom = whitney.cell_geometry(self)
        _read_only(geom.vols, geom.grads, geom.curls, geom.flipped)
        return geom

    @cached_property
    def free_pattern(self):
        return _csr_pattern(self)

    @cached_property
    def coarse(self):
        if self.divisions is None or any(d % 2 for d in self.divisions):
            return None
        half = tuple(d // 2 for d in self.divisions)
        if min(half) < COARSEST_DIVISIONS:
            return None
        return build_box_mesh(half, *self.box)

    @cached_property
    def prolongation(self):
        return None if self.coarse is None else _prolongation(self)

    @cached_property
    def projector_matrices(self):
        from . import helmholtz
        return _read_only(*helmholtz._projector_matrices(self))

    @cached_property
    def stiffness(self):
        from . import assembly
        K = assembly.scatter_blocks(self, assembly.stiffness_blocks(self)).copy()
        # The Kuhn split leaves exact zeros in the pattern (orthogonal
        # basis curls): dropping them makes each matvec ~30% cheaper.
        K.eliminate_zeros()
        return _read_only(K)[0]

    def interior_vertices(self):
        """Vertex indices not on the box surface, ascending; read-only."""
        return self._interior_vertices

    def free_edges(self):
        """Edge indices off the box surface (free DoFs), ascending; read-only."""
        return self._free_edges

    @cached_property
    def bfs_tree(self):
        """Breadth-first spanning tree of the vertex graph from vertex 0.

        Each level visits its vertices in ascending order and each
        vertex's edges in edge order, lo-end edges first; a vertex's tree
        edge is the first edge that reaches it. Built on first use and
        cached, with read-only arrays.

        A tuple of one (via, parent, child) triple of arrays per level
        below vertex 0: the level's tree edges, and the vertices they
        leave and reach.
        """
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        eid = np.tile(np.arange(self.num_edges), 2)
        order = np.argsort(src, kind="stable")
        dst, eid = dst[order], eid[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src))])

        seen = np.zeros(self.num_vertices, dtype=bool)
        seen[0] = True
        frontier = np.array([0])
        levels = []
        while True:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
            slots = offsets + np.arange(counts.sum())
            nbr, via = dst[slots], eid[slots]
            parent = np.repeat(frontier, counts)
            new = ~seen[nbr]
            child, first = np.unique(nbr[new], return_index=True)
            if not child.size:
                break
            seen[child] = True
            levels.append(_read_only(via[new][first], parent[new][first], child))
            frontier = child
        return tuple(levels)

    # -- construction helpers ---------------------------------------------

    def _build_edges(self):
        # ascending rows: local edge (a, b), a < b, is its global (lo, hi)
        t = self.tets
        key = t[:, _EDGE_I] * self.num_vertices + t[:, _EDGE_J]   # (T, 6)
        uniq, inverse = np.unique(key, return_inverse=True)
        self.edges = np.column_stack([uniq // self.num_vertices,
                                      uniq % self.num_vertices])
        self.tet_edges = inverse.reshape(key.shape)


def _csr_pattern(mesh):
    """Build `mesh.free_pattern`.

    Free edges i and j couple when they share a tet, so the structure is
    that of inc^T inc, inc being the (T x free) tet-edge incidence. Its
    nonzeros are numbered in order and the number of each block entry
    with a free row and column is read back by a CSR lookup, a chunk of
    tets at a time, so no (T * 36)-long sort or int64 key array is made.
    The other entries go to the dump slot nnz.
    """
    free = mesh.free_edges()
    ntet, n = mesh.num_tets, free.size
    position = np.full(mesh.num_edges, -1, dtype=np.int32)
    position[free] = np.arange(n, dtype=np.int32)
    index = position[mesh.tet_edges]
    kept = index >= 0
    indptr = np.zeros(ntet + 1, dtype=np.int32)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    inc = sp.csr_array((np.ones(indptr[-1], dtype=np.int32), index[kept],
                        indptr), shape=(ntet, n))
    adj = (inc.T @ inc).tocsr()
    adj.sort_indices()
    adj.data = np.arange(adj.nnz, dtype=np.int32)
    slot = np.full(ntet * 36, adj.nnz, dtype=np.int32)
    for start in range(0, ntet, _PATTERN_CHUNK):
        e = index[start:start + _PATTERN_CHUNK]
        both = (e >= 0)[:, :, None] & (e >= 0)[:, None, :]
        if both.any():      # scipy returns a sparse array for no indices
            rows = np.broadcast_to(e[:, :, None], both.shape)[both]
            cols = np.broadcast_to(e[:, None, :], both.shape)[both]
            chunk = slot[36 * start:36 * (start + e.shape[0])]
            chunk[both.ravel()] = adj[rows, cols]
    return CSRPattern(*_read_only(adj.indptr.astype(np.int32, copy=False),
                                  adj.indices.astype(np.int32, copy=False), slot))


def _read_only(*items):
    """Mark arrays, and the arrays of CSR matrices, read-only; returns items."""
    for item in items:
        arrs = (item.data, item.indices, item.indptr) if sp.issparse(item) else (item,)
        for arr in arrs:
            arr.flags.writeable = False
    return items


def _prolongation(mesh):
    """Build `mesh.prolongation` from `mesh.coarse`.

    Kuhn refinement is nested: every fine tet, and so every fine edge
    (a, b), lies in one coarse tet, on which a coarse Whitney field is
    linear. The fine degree of freedom, the field at the edge midpoint
    dotted with b - a, is therefore exact. The midpoint is placed in its
    coarse cube, and in the Kuhn tet whose axis order sorts its local
    coordinates. Everything is computed in coarse grid units, where the
    midpoints, the barycentric coordinates and their gradients are small
    dyadic rationals, so each entry of P is exact; circulations do not
    change under the affine map onto the box. A coarse boundary face
    carries only boundary edges, so the coarse boundary columns of a free
    row meet zero coefficients and are dropped.
    """
    coarse = mesh.coarse
    nc = np.array(coarse.divisions)
    X = np.column_stack(np.unravel_index(np.arange(mesh.num_vertices),
                                         tuple(2 * nc + 1))) / 2.0
    Xc = np.column_stack(np.unravel_index(np.arange(coarse.num_vertices),
                                          tuple(nc + 1))).astype(float)
    free = mesh.free_edges()
    a, b = X[mesh.edges[free, 0]], X[mesh.edges[free, 1]]
    mid, d = 0.5 * (a + b), b - a
    cube = np.minimum(np.floor(mid).astype(np.int64), nc - 1)
    order = np.argsort(cube - mid, axis=1, kind="stable")
    # build_box_mesh numbers tets by axis order, in permutations order,
    # then by cube in C order.
    perm_number = np.zeros(27, dtype=np.int64)
    for k, perm in enumerate(itertools.permutations(range(3))):
        perm_number[perm[0] * 9 + perm[1] * 3 + perm[2]] = k
    tet = (perm_number[order @ (9, 3, 1)] * nc.prod()
           + (cube[:, 0] * nc[1] + cube[:, 1]) * nc[2] + cube[:, 2])

    V = Xc[coarse.tets[tet]]                            # (n, 4, 3)
    grads = np.empty_like(V)
    # unimodular edge matrices: the inverse is an integer matrix
    grads[:, 1:] = np.rint(np.linalg.inv(V[:, 1:] - V[:, :1])).transpose(0, 2, 1)
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    lam = np.einsum("nij,nj->ni", grads, mid - V[:, 0])
    lam[:, 0] += 1.0
    slope = grads @ d[:, :, None]                      # (n, 4, 1): grad lam . d
    vals = np.stack([lam[:, i] * slope[:, j, 0] - lam[:, j] * slope[:, i, 0]
                     for i, j in LOCAL_EDGES], axis=1)

    position = np.full(coarse.num_edges, -1, dtype=np.int32)
    cfree = coarse.free_edges()
    position[cfree] = np.arange(cfree.size, dtype=np.int32)
    cols = position[coarse.tet_edges[tet]]
    kept = (cols >= 0) & (vals != 0.0)
    rows = np.broadcast_to(np.arange(free.size)[:, None], cols.shape)
    P = sp.csr_array((vals[kept], (rows[kept], cols[kept])),
                     shape=(free.size, cfree.size))
    P.sort_indices()
    return _read_only(P)[0]


def build_box_mesh(divisions, origin=(0.0, 0.0, 0.0), extents=(1.0, 1.0, 1.0)):
    """Kuhn 6-tet split of an (nx, ny, nz) grid over an axis-aligned box.

    All six tets of a cube share the cube's main diagonal, so each cube
    contributes 12 cube edges, 6 face diagonals and 1 body diagonal to the
    edge set. Output is deterministic for fixed input.

    Raises:
        MeshError: on non-positive divisions or extents, or a non-finite
            box or cell volume.
    """
    divisions = tuple(int(d) for d in divisions)
    origin = np.asarray(origin, dtype=float)
    extents = np.asarray(extents, dtype=float)
    if len(divisions) != 3 or any(d < 1 for d in divisions):
        raise MeshError(f"divisions must be three positive integers, got {divisions}")
    if extents.shape != (3,) or not np.all(extents > 0):    # NaN fails it
        raise MeshError(f"extents must be three positive lengths, got {extents}")
    with np.errstate(over="ignore"):
        cell = np.prod(extents / divisions)
        if not np.all(np.isfinite([*origin, *extents, *(origin + extents), cell])):
            raise MeshError(f"box and cell volume must be finite, got "
                            f"{origin} + {extents} in {divisions} cells")

    nx, ny, nz = divisions
    xs = origin[0] + extents[0] * np.arange(nx + 1) / nx
    ys = origin[1] + extents[1] * np.arange(ny + 1) / ny
    zs = origin[2] + extents[2] * np.arange(nz + 1) / nz
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()

    tets = []
    axes = np.eye(3, dtype=np.int64)
    for perm in itertools.permutations(range(3)):
        # Walk the cube from its low corner to its high corner along the
        # axis order given by perm; the 4 visited corners form one tet.
        c0 = np.stack([ii, jj, kk], axis=1)
        c1 = c0 + axes[perm[0]]
        c2 = c1 + axes[perm[1]]
        c3 = c2 + axes[perm[2]]
        # each step raises a grid index, so the row is ascending; an
        # odd axis order gives the tet negative orientation
        tets.append(np.stack([vid(c[:, 0], c[:, 1], c[:, 2])
                              for c in (c0, c1, c2, c3)], axis=1))
    tets = np.concatenate(tets, axis=0)

    return Mesh(vertices, tets, (origin, extents), divisions)


def _box_planes(mesh):
    """(V, 6) bool: vertex on the low x, y, z or the high x, y, z box plane."""
    origin, extents = mesh.box
    tol = 1e-12 * float(np.max(extents))
    return np.concatenate([np.abs(mesh.vertices - origin) <= tol,
                           np.abs(mesh.vertices - (origin + extents)) <= tol], axis=1)


def _on_boundary(mesh):
    """(E,) and (V,) bool masks of the edges and vertices lying on the
    surface of the mesh's box.

    The box-plane rule decides every boundary query: a vertex is on the
    boundary when it lies on a box plane, an edge when both endpoints lie
    on the *same* plane (an edge crossing the interior between two
    different planes is not a boundary edge), a face (`boundary_faces`)
    when its three corners do. These edge DoFs are exactly the ones
    pinned to zero by the tangential boundary condition, since a Whitney
    field has zero tangential trace iff its circulations vanish on every
    boundary edge.
    """
    planes = _box_planes(mesh)
    shared = planes[mesh.edges[:, 0]] & planes[mesh.edges[:, 1]]
    return shared.any(axis=1), planes.any(axis=1)


def boundary_faces(mesh):
    """Boundary triangles with outward unit normals.

    A tet face is on the box surface exactly when its three corners lie
    on one box plane (`_on_boundary`), and its outward normal is that
    plane's: -e_k on a low plane, +e_k on a high one. Each surface
    triangle is the face of one tet, so it is found once.

    Returns:
        faces: (F, 3) vertex indices of triangles on the box surface.
        normals: (F, 3) outward unit normals.
        areas: (F,) triangle areas.
    """
    bits = 1 << np.arange(6)
    mask = _box_planes(mesh) @ bits                     # (V,) plane bits
    tris = mesh.tets[:, list(itertools.combinations(range(4), 3))].reshape(-1, 3)
    common = mask[tris[:, 0]] & mask[tris[:, 1]] & mask[tris[:, 2]]
    on = common > 0
    faces = tris[on]
    # a face lies on one plane only: corners on two planes would be collinear
    plane = np.nonzero(common[on, None] & bits)[1]
    p = mesh.vertices[faces]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    return faces, np.vstack([-np.eye(3), np.eye(3)])[plane], areas
