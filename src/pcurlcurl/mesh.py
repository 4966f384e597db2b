"""Structured tetrahedral meshes of axis-aligned boxes.

Each grid cube is split into 6 tetrahedra sharing the cube's main diagonal
(Kuhn split). The split is orientation-uniform: every edge is stored once,
directed from its lower to its higher global vertex index, so the sign
relating a tet's local edge direction to the global one is a pure function
of the vertex ordering.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

# Local edges of a tetrahedron (pairs of local vertex slots), fixed order.
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class MeshError(ValueError):
    """Invalid mesh construction parameters or corrupt topology."""


class Mesh:
    """Tetrahedral box mesh with oriented-edge connectivity.

    Attributes:
        vertices: (V, 3) float array of coordinates.
        tets: (T, 4) int array of vertex indices, positively oriented.
        edges: (E, 2) int array, each row (lo, hi) with lo < hi.
        tet_edges: (T, 6) int array of global edge indices, local order
            per LOCAL_EDGES.
        tet_edge_signs: (T, 6) int array, +1 where the local direction
            agrees with the global lo->hi direction, -1 otherwise.
        boundary_edges: sorted int array of edge indices on the box surface.
        boundary_vertices: sorted int array of vertex indices on the surface.
        box: (origin, extents) pair of float triples.
        geometry: the whitney.CellGeometry of the tets, computed on first
            access and cached, with read-only arrays.

    Instances are immutable by convention; all arrays are views into
    construction-time buffers and must not be written to.
    """

    def __init__(self, vertices, tets, box):
        self.vertices = np.asarray(vertices, dtype=float)
        self.tets = np.asarray(tets, dtype=np.int64)
        self.box = (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
        self._build_edges()
        self.boundary_edges, self.boundary_vertices = classify_boundary(self)

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
        # Lazy: a mesh used only for interpolation or output never pays
        # for it. The arrays are shared by every caller, hence read-only.
        from . import whitney
        geom = whitney.cell_geometry(self)
        for arr in (geom.vols, geom.grads, geom.curls):
            arr.flags.writeable = False
        return geom

    def interior_vertices(self):
        """Vertex indices not on the box surface, ascending."""
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.flatnonzero(mask)

    def free_edges(self):
        """Edge indices not on the box surface (unconstrained DoFs)."""
        mask = np.ones(self.num_edges, dtype=bool)
        mask[self.boundary_edges] = False
        return np.flatnonzero(mask)

    def bfs_tree(self, node, edges, root):
        """Breadth-first spanning tree of a graph on the mesh vertices.

        Vertex v is graph node node[v] (labels 0..N-1, so a labelling can
        merge vertices), and the arcs are the mesh edges listed in
        `edges`. Each level visits its nodes in ascending order and each
        node's arcs in `edges` order, lo-end arcs first; a node's tree
        edge is the first arc that reaches it.

        Returns:
            One (via, parent, child) triple of arrays per level below
            `root`: positions in `edges` of the level's tree edges, and
            the nodes they leave and reach.
        """
        ends = node[self.edges[edges]]
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        eid = np.tile(np.arange(len(edges)), 2)
        order = np.argsort(src, kind="stable")
        dst, eid = dst[order], eid[order]
        nnode = int(node.max(initial=root)) + 1
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=nnode))])

        seen = np.zeros(nnode, dtype=bool)
        seen[root] = True
        frontier = np.array([root])
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
                return levels
            seen[child] = True
            levels.append((via[new][first], parent[new][first], child))
            frontier = child

    # -- construction helpers ---------------------------------------------

    def _build_edges(self):
        t = self.tets
        pairs = np.concatenate([t[:, [a, b]] for a, b in LOCAL_EDGES], axis=0)
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        key = lo.astype(np.int64) * self.num_vertices + hi
        uniq, inverse = np.unique(key, return_inverse=True)
        self.edges = np.column_stack([uniq // self.num_vertices,
                                      uniq % self.num_vertices])
        ntet = self.num_tets
        self.tet_edges = np.empty((ntet, 6), dtype=np.int64)
        self.tet_edge_signs = np.empty((ntet, 6), dtype=np.int64)
        for k, (a, b) in enumerate(LOCAL_EDGES):
            self.tet_edges[:, k] = inverse[k * ntet:(k + 1) * ntet]
            self.tet_edge_signs[:, k] = np.where(t[:, a] < t[:, b], 1, -1)


def build_box_mesh(divisions, origin=(0.0, 0.0, 0.0), extents=(1.0, 1.0, 1.0)):
    """Kuhn 6-tet split of an (nx, ny, nz) grid over an axis-aligned box.

    All six tets of a cube share the cube's main diagonal, so each cube
    contributes 12 cube edges, 6 face diagonals and 1 body diagonal to the
    edge set. Output is deterministic for fixed input.

    Raises:
        MeshError: on non-positive divisions or extents.
    """
    divisions = tuple(int(d) for d in divisions)
    origin = np.asarray(origin, dtype=float)
    extents = np.asarray(extents, dtype=float)
    if len(divisions) != 3 or any(d < 1 for d in divisions):
        raise MeshError(f"divisions must be three positive integers, got {divisions}")
    if extents.shape != (3,) or np.any(extents <= 0):
        raise MeshError(f"extents must be three positive lengths, got {extents}")

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
        quad = np.stack([vid(c[:, 0], c[:, 1], c[:, 2])
                         for c in (c0, c1, c2, c3)], axis=1)
        if _perm_parity(perm) < 0:
            # Odd axis order flips the orientation; swap two vertices so
            # every stored tet has positive volume.
            quad = quad[:, [0, 2, 1, 3]]
        tets.append(quad)
    tets = np.concatenate(tets, axis=0)

    mesh = Mesh(vertices, tets, (origin, extents))
    vols = tet_volumes(mesh)
    if np.any(vols <= 0):
        raise MeshError("internal error: non-positive tet volume after Kuhn split")
    return mesh


def _perm_parity(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def classify_boundary(mesh):
    """Edges and vertices lying on the surface of the mesh's box.

    A vertex is on the boundary when some coordinate sits at a box face;
    an edge is on the boundary only when both endpoints share the *same*
    face plane (an edge crossing the interior between two different faces
    is not a boundary edge). These edge DoFs are exactly the ones pinned
    to zero by the tangential boundary condition, since a Whitney field
    has zero tangential trace iff its circulations vanish on every
    boundary edge.
    """
    origin, extents = mesh.box
    lo = origin
    hi = origin + extents
    scale = float(np.max(extents))
    tol = 1e-12 * scale
    at_lo = np.abs(mesh.vertices - lo) <= tol           # (V, 3)
    at_hi = np.abs(mesh.vertices - hi) <= tol
    on_face = np.concatenate([at_lo, at_hi], axis=1)    # (V, 6)

    boundary_vertices = np.flatnonzero(on_face.any(axis=1))

    e_lo = mesh.edges[:, 0]
    e_hi = mesh.edges[:, 1]
    shared = on_face[e_lo] & on_face[e_hi]
    boundary_edges = np.flatnonzero(shared.any(axis=1))
    return boundary_edges, boundary_vertices


def tet_volumes(mesh):
    """Signed volumes under the stored vertex order, shape (T,)."""
    v = mesh.vertices[mesh.tets]
    d = v[:, 1:] - v[:, :1]
    return np.linalg.det(d) / 6.0


def boundary_faces(mesh):
    """Boundary triangles with outward unit normals.

    Returns:
        faces: (F, 3) vertex indices of triangles on the box surface.
        normals: (F, 3) outward unit normals.
        areas: (F,) triangle areas.
    """
    local_faces = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    tris = []
    opp = []
    for lf, o in zip(local_faces, range(4)):
        tris.append(mesh.tets[:, lf])
        opp.append(mesh.tets[:, o])
    tris = np.concatenate(tris, axis=0)
    opp = np.concatenate(opp, axis=0)

    key = np.sort(tris, axis=1)
    code = (key[:, 0] * mesh.num_vertices + key[:, 1]) * mesh.num_vertices + key[:, 2]
    order = np.argsort(code, kind="stable")
    code_sorted = code[order]
    uniq, counts = np.unique(code_sorted, return_counts=True)
    first = np.searchsorted(code_sorted, uniq[counts == 1])
    sel = order[first]

    faces = tris[sel]
    opposite = opp[sel]
    p = mesh.vertices[faces]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    areas = 0.5 * np.linalg.norm(n, axis=1)
    n = n / (2.0 * areas)[:, None]
    # Orient away from the tet's interior (the opposite vertex).
    inward = np.einsum("fi,fi->f", n, mesh.vertices[opposite] - p[:, 0]) > 0
    n[inward] *= -1.0
    return faces, n, areas
