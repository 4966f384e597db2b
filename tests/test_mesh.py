import itertools

import numpy as np
import pytest

from pcurlcurl import whitney
from pcurlcurl.mesh import Mesh, MeshError, boundary_faces, build_box_mesh
from pcurlcurl.assembly import (EdgeField, assemble_gradient_map,
                                curl_per_tet, scatter_blocks, stiffness_blocks)


def kuhn_cube_oracle():
    """Independent enumeration: the 6 path-tets of a unit cube.

    Vertices are numbered by bits (x + 2y + 4z); each axis permutation
    gives the corner path 000 -> ... -> 111.
    """
    tets = []
    for perm in itertools.permutations(range(3)):
        corner = [0, 0, 0]
        path = [0]
        for ax in perm:
            corner[ax] = 1
            path.append(corner[0] + 2 * corner[1] + 4 * corner[2])
        tets.append(tuple(path))
    return tets


def test_unit_cube_counts_match_enumeration_oracle():
    oracle_tets = kuhn_cube_oracle()
    pairs = set()
    for tet in oracle_tets:
        for a, b in itertools.combinations(tet, 2):
            pairs.add((min(a, b), max(a, b)))
    mesh = build_box_mesh((1, 1, 1))
    assert mesh.num_vertices == 8
    assert mesh.num_tets == len(oracle_tets) == 6
    assert mesh.num_edges == len(pairs) == 19


def test_2x1x1_counts():
    mesh = build_box_mesh((2, 1, 1))
    assert mesh.num_vertices == 12
    assert mesh.num_tets == 12


@pytest.mark.parametrize("divisions,extents", [
    ((1, 1, 1), (1.0, 1.0, 1.0)),
    ((2, 3, 1), (2.0, 1.5, 0.5)),
    ((4, 4, 4), (np.pi, np.pi, np.pi)),
])
def test_volumes_partition_box(divisions, extents):
    mesh = build_box_mesh(divisions, extents=extents)
    vols = mesh.geometry.vols
    assert np.all(vols > 0)
    assert np.isclose(vols.sum(), np.prod(extents), rtol=1e-13)


def test_euler_counts():
    for n in ((1, 1, 1), (2, 2, 2), (3, 2, 4)):
        mesh = build_box_mesh(n)
        nx, ny, nz = n
        assert mesh.num_vertices == (nx + 1) * (ny + 1) * (nz + 1)
        assert mesh.num_tets == 6 * nx * ny * nz


def test_unit_cube_boundary():
    mesh = build_box_mesh((1, 1, 1))
    assert len(mesh.boundary_vertices) == 8
    # everything except the body diagonal lies in a face
    assert len(mesh.boundary_edges) == 18
    interior = mesh.free_edges()
    assert interior.size == 1
    lo, hi = mesh.edges[interior[0]]
    diag = mesh.vertices[hi] - mesh.vertices[lo]
    assert np.allclose(np.abs(diag), 1.0)


def test_interior_vertex_count_3x3x3():
    mesh = build_box_mesh((3, 3, 3))
    assert len(mesh.interior_vertices()) == 8


def test_boundary_vertices_are_endpoints_of_boundary_edges():
    for n in ((2, 2, 2), (3, 1, 2)):
        mesh = build_box_mesh(n)
        from_edges = set(mesh.edges[mesh.boundary_edges].ravel().tolist())
        assert from_edges == set(mesh.boundary_vertices.tolist())


def test_edges_sorted_and_signs_consistent():
    mesh = build_box_mesh((2, 3, 2))
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    # ascending rows: every local edge runs as its global edge does
    assert np.all(np.diff(mesh.tets, axis=1) > 0)
    from pcurlcurl.mesh import LOCAL_EDGES
    for k, (a, b) in enumerate(LOCAL_EDGES):
        va = mesh.tets[:, a]
        vb = mesh.tets[:, b]
        stored = mesh.edges[mesh.tet_edges[:, k]]
        assert np.array_equal(np.minimum(va, vb), stored[:, 0])
        assert np.array_equal(np.maximum(va, vb), stored[:, 1])


def test_tet_rows_are_ascending_for_any_input_order():
    box = build_box_mesh((3, 2, 2), extents=(1.0, 1.3, 0.7))
    rng = np.random.default_rng(5)
    shuffled = rng.permuted(box.tets, axis=1)
    assert not np.array_equal(shuffled, box.tets)
    raw = Mesh(box.vertices, shuffled, box.box)
    for mesh in (box, raw):
        assert np.all(np.diff(mesh.tets, axis=1) > 0)
    assert np.array_equal(raw.tets, box.tets)
    assert np.array_equal(raw.edges, box.edges)
    assert np.array_equal(raw.tet_edges, box.tet_edges)
    for name in ("vols", "grads", "curls", "flipped"):
        assert np.array_equal(getattr(raw.geometry, name),
                              getattr(box.geometry, name))
    assert np.array_equal(raw.stiffness.indptr, box.stiffness.indptr)
    assert np.array_equal(raw.stiffness.indices, box.stiffness.indices)
    assert np.array_equal(raw.stiffness.data, box.stiffness.data)


def test_index_sets_are_stored_read_only_complements():
    # one array per mesh, shared by every caller
    mesh = build_box_mesh((3, 2, 4), origin=(-1, 0, 2), extents=(2, 1, 3))
    for get, n, boundary in (
            (mesh.free_edges, mesh.num_edges, mesh.boundary_edges),
            (mesh.interior_vertices, mesh.num_vertices, mesh.boundary_vertices)):
        got = get()
        assert get() is got
        assert not got.flags.writeable
        assert np.array_equal(got, np.setdiff1d(np.arange(n), boundary))
    # so is every array the mesh is built from or derives at construction
    for arr in (mesh.vertices, mesh.tets, mesh.edges, mesh.tet_edges,
                mesh.boundary_edges, mesh.boundary_vertices, *mesh.box):
        assert not arr.flags.writeable
    # a caller's own float64 arrays are frozen in a view, not in place
    vertices, origin = mesh.vertices.copy(), np.array([-1.0, 0.0, 2.0])
    raw = Mesh(vertices, mesh.tets, (origin, np.array([2.0, 1.0, 3.0])))
    assert vertices.flags.writeable and origin.flags.writeable
    assert not raw.vertices.flags.writeable and not raw.box[0].flags.writeable


@pytest.mark.parametrize("divisions,extents", [
    ((0, 1, 1), (1, 1, 1)),
    ((1, -2, 1), (1, 1, 1)),
    ((1, 1, 1), (0.0, 1, 1)),
    ((1, 1, 1), (1, 1, -3.0)),
])
def test_rejects_bad_input(divisions, extents):
    with pytest.raises(MeshError):
        build_box_mesh(divisions, extents=extents)


@pytest.mark.parametrize("origin,extents", [
    ((np.nan, 0, 0), (1, 1, 1)),
    ((0, -np.inf, 0), (1, 1, 1)),
    ((0, 0, 0), (np.inf, 1, 1)),
    ((0, 0, 0), (np.nan, 1, 1)),
    ((1e308, 0, 0), (1e308, 1, 1)),         # the far corner overflows
])
def test_rejects_a_non_finite_box(origin, extents):
    # NaN passes `extents <= 0`, and a non-finite box gives NaN volumes
    # (extents (inf, 1, 1) even a mesh with no free edge)
    with pytest.raises(MeshError), np.errstate(over="ignore"):
        build_box_mesh((2, 2, 2), origin=origin, extents=extents)


def test_orientation_consistency_symmetric_stiffness():
    # a well-defined global circulation DoF makes the p=2 curl-curl
    # form symmetric to machine precision
    mesh = build_box_mesh((2, 2, 2))
    K = scatter_blocks(mesh, stiffness_blocks(mesh))
    assert abs(K - K.T).max() <= 1e-13 * abs(K).max()


def test_boundary_faces_close_the_box():
    mesh = build_box_mesh((2, 3, 2), origin=(0, 0, 0), extents=(1.0, 2.0, 1.5))
    faces, normals, areas = boundary_faces(mesh)
    # total surface area of the box
    a, b, c = 1.0, 2.0, 1.5
    assert np.isclose(areas.sum(), 2 * (a * b + b * c + a * c), rtol=1e-13)
    # outward orientation: positive flux of the identity field x -> x - center
    center = np.array([a, b, c]) / 2
    centroids = mesh.vertices[faces].mean(axis=1)
    assert np.all(np.einsum("fi,fi->f", centroids - center, normals) > 0)
    # unit normals, axis-aligned for a box
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert np.allclose(np.abs(normals).max(axis=1), 1.0)


def topological_boundary_faces(mesh):
    """Reference: the tet faces no other tet shares, as sorted vertex
    triples, with unit normals turned away from the tet's opposite vertex
    and areas from the cross product."""
    tris, opposite = [], []
    for o in range(4):
        tris.append(np.delete(mesh.tets, o, axis=1))
        opposite.append(mesh.tets[:, o])
    tris, opposite = np.concatenate(tris), np.concatenate(opposite)
    key = np.sort(tris, axis=1)
    _, first, counts = np.unique(key, axis=0, return_index=True,
                                 return_counts=True)
    sel = first[counts == 1]
    p = mesh.vertices[key[sel]]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    areas = 0.5 * np.linalg.norm(n, axis=1)
    n /= (2.0 * areas)[:, None]
    inward = np.einsum("fi,fi->f", n, mesh.vertices[opposite[sel]] - p[:, 0]) > 0
    n[inward] *= -1.0
    return key[sel], n, areas


def permuted_raw_mesh():
    box = build_box_mesh((5, 4, 3), origin=(-1, 0, 2), extents=(2, 1, 3))
    shuffled = np.random.default_rng(11).permuted(box.tets, axis=1)
    assert not np.array_equal(shuffled, box.tets)
    return Mesh(box.vertices, shuffled, box.box)


@pytest.mark.parametrize("make", [
    lambda: build_box_mesh((5, 4, 3), origin=(-1, 0, 2), extents=(2, 1, 3)),
    lambda: build_box_mesh((1, 1, 1)),
    permuted_raw_mesh,
], ids=["offset-anisotropic", "unit-cube", "raw-permuted"])
def test_box_plane_faces_match_topological_reference(make):
    mesh = make()
    faces, normals, areas = boundary_faces(mesh)
    ref_faces, ref_normals, ref_areas = topological_boundary_faces(mesh)
    key = np.sort(faces, axis=1)
    order = np.lexsort(key.T[::-1])                # ascending triples
    key, normals, areas = key[order], normals[order], areas[order]
    assert np.unique(key, axis=0).shape == key.shape       # each face once
    assert np.array_equal(key, ref_faces)
    assert np.array_equal(normals, ref_normals)
    # exactly +-e_k, no tolerance: one unit entry, zeros elsewhere
    assert np.array_equal(np.sort(np.abs(normals), axis=1),
                          np.tile([0.0, 0.0, 1.0], (len(normals), 1)))
    # outward: the face lies on the low plane of axis k for -e_k, on the
    # high one for +e_k
    origin, extents = mesh.box
    axis = np.argmax(np.abs(normals), axis=1)
    rows = np.arange(len(axis))
    plane = np.where(normals[rows, axis] < 0, origin[axis],
                     origin[axis] + extents[axis])
    coords = mesh.vertices[key][rows, :, axis]          # (F, 3)
    assert np.allclose(coords, plane[:, None], rtol=0, atol=1e-12)
    assert np.allclose(areas, ref_areas, rtol=1e-15, atol=0)


def test_geometry_is_cached_and_read_only():
    mesh = build_box_mesh((2, 3, 2), extents=(1.0, 2.0, 1.5))
    geom = mesh.geometry
    assert mesh.geometry is geom
    fresh = whitney.cell_geometry(mesh)
    for name in ("vols", "grads", "curls", "flipped"):
        assert np.array_equal(getattr(geom, name), getattr(fresh, name))
        with pytest.raises(ValueError):
            getattr(geom, name)[0] = 0.0


@pytest.mark.parametrize("divisions", [(1, 1, 1), (3, 3, 3), (4, 3, 5)])
def test_bfs_tree_spans_vertex_graph_level_by_level(divisions):
    mesh = build_box_mesh(divisions)
    depth = np.full(mesh.num_vertices, -1)
    depth[0] = 0
    levels = mesh.bfs_tree
    for d, (via, parent, child) in enumerate(levels, start=1):
        assert np.all(depth[parent] == d - 1)       # reached one level earlier
        assert np.all(depth[child] == -1)           # each vertex reached once
        depth[child] = d
        ends = np.sort(np.column_stack([parent, child]), axis=1)
        assert np.array_equal(mesh.edges[via], ends)
    assert sum(via.size for via, _, _ in levels) == mesh.num_vertices - 1
    assert np.all(depth >= 0)


def test_bfs_tree_is_built_once_and_read_only():
    mesh = build_box_mesh((3, 4, 2))
    levels = mesh.bfs_tree
    assert mesh.bfs_tree is levels
    for level in levels:
        for arr in level:
            with pytest.raises(ValueError):
                arr[0] = 0


def reference_bfs_tree(mesh):
    """Tree edges by a plain queue BFS of the vertex graph from vertex 0.

    Each level scans its vertices in ascending order and each vertex's
    edges in edge order, those where it is the lo end first; a vertex's
    tree edge is the first edge that reaches it.
    """
    arcs = [[] for _ in range(mesh.num_vertices)]
    for k, (a, b) in enumerate(mesh.edges):
        arcs[a].append((b, k))
    for k, (a, b) in enumerate(mesh.edges):
        arcs[b].append((a, k))
    seen = {0}
    tree = []
    level = [0]
    while level:
        nxt = []
        for a in sorted(level):
            for b, k in arcs[a]:
                if b not in seen:
                    seen.add(b)
                    tree.append(k)
                    nxt.append(b)
        level = nxt
    return np.array(sorted(tree), dtype=np.int64)


@pytest.mark.parametrize("divisions", [(1, 1, 1), (2, 2, 2), (3, 3, 3),
                                       (4, 3, 5), (6, 6, 6)])
def test_spanning_tree_matches_reference_bfs(divisions):
    mesh = build_box_mesh(divisions)
    tree = np.sort(np.concatenate([via for via, _, _ in mesh.bfs_tree]))
    assert np.array_equal(tree, reference_bfs_tree(mesh))


def test_divisions_and_coarse_mesh():
    mesh = build_box_mesh((6, 8, 6), origin=(1.0, -2.0, 0.5),
                          extents=(2.0, 1.0, 3.0))
    assert mesh.divisions == (6, 8, 6)
    coarse = mesh.coarse
    assert coarse is mesh.coarse                      # cached
    assert coarse.divisions == (3, 4, 3)
    for a, b in zip(coarse.box, mesh.box):
        assert np.array_equal(a, b)
    # 3 is odd, and a half below COARSEST_DIVISIONS ends the hierarchy
    assert coarse.coarse is None and coarse.prolongation is None
    for divisions in ((6, 6, 5), (4, 4, 4), (6, 6, 4), (2, 2, 2)):
        assert build_box_mesh(divisions).coarse is None
    raw = Mesh(mesh.vertices, mesh.tets, mesh.box)
    assert raw.divisions is None and raw.coarse is None


def _parent_tets(fine, coarse):
    """The coarse tet holding each fine tet, by barycentric coordinates of
    the fine centroids in every coarse tet."""
    g = coarse.geometry.grads                                   # (Tc, 4, 3)
    x = fine.vertices[fine.tets].mean(axis=1)                   # (Tf, 3)
    v = coarse.vertices[coarse.tets]                            # (Tc, 4, 3)
    lam = 1.0 + np.einsum("cij,fj->fci", g, x) - np.einsum("cij,cij->ci", g, v)
    inside = np.all(lam >= -1e-12, axis=2)
    assert np.all(inside.sum(axis=1) == 1)
    return inside.argmax(axis=1)


@pytest.mark.parametrize("divisions, extents", [
    ((6, 6, 6), (np.pi, np.pi, np.pi)),
    ((8, 6, 6), (1.0, 2.5, 0.5)),
])
def test_prolongation_keeps_each_parent_curl(divisions, extents):
    mesh = build_box_mesh(divisions, origin=(0.5, -1.0, 2.0), extents=extents)
    coarse, P = mesh.coarse, mesh.prolongation
    free, cfree = mesh.free_edges(), coarse.free_edges()
    assert P.shape == (free.size, cfree.size)
    assert np.diff(P.indptr).max() <= 6
    assert not P.data.flags.writeable
    assert P is mesh.prolongation
    rng = np.random.default_rng(7)
    uc = EdgeField(coarse)
    uc.coeffs[cfree] = rng.standard_normal(cfree.size)
    uf = EdgeField(mesh)
    uf.coeffs[free] = P @ uc.coeffs[cfree]
    parent_curl = curl_per_tet(uc)[_parent_tets(mesh, coarse)]
    scale = np.abs(parent_curl).max()
    assert np.abs(curl_per_tet(uf) - parent_curl).max() <= 1e-13 * scale


def test_prolongation_maps_coarse_gradients_to_fine_gradients():
    mesh = build_box_mesh((6, 8, 6), extents=(np.pi, 2.0, 1.0))
    coarse = mesh.coarse
    phi = np.zeros(coarse.num_vertices)
    interior = coarse.interior_vertices()
    phi[interior] = np.random.default_rng(3).standard_normal(interior.size)
    # the P1 interpolant: coarse values at the coarse vertices, and the
    # mean of the two ends of the coarse edge whose midpoint a new vertex is
    nc = np.array(coarse.divisions)
    grid = np.column_stack(np.unravel_index(np.arange(mesh.num_vertices),
                                            tuple(2 * nc + 1)))
    ends = [np.ravel_multi_index(tuple(e.T), tuple(nc + 1))
            for e in (grid // 2, (grid + 1) // 2)]
    phi_f = 0.5 * (phi[ends[0]] + phi[ends[1]])
    Gc = assemble_gradient_map(coarse)[coarse.free_edges()]
    Gf = assemble_gradient_map(mesh)[mesh.free_edges()]
    lhs = mesh.prolongation @ (Gc @ phi[interior])
    rhs = Gf @ phi_f[mesh.interior_vertices()]
    assert np.abs(lhs - rhs).max() <= 1e-14 * np.abs(rhs).max()
