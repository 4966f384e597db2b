import itertools

import numpy as np
import pytest

from pcurlcurl import whitney
from pcurlcurl.mesh import (MeshError, boundary_faces, build_box_mesh,
                            classify_boundary, tet_volumes)
from pcurlcurl.assembly import stiffness_matrix


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
    vols = tet_volumes(mesh)
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
    from pcurlcurl.mesh import LOCAL_EDGES
    for k, (a, b) in enumerate(LOCAL_EDGES):
        va = mesh.tets[:, a]
        vb = mesh.tets[:, b]
        expect = np.where(va < vb, 1, -1)
        assert np.array_equal(mesh.tet_edge_signs[:, k], expect)
        stored = mesh.edges[mesh.tet_edges[:, k]]
        assert np.array_equal(np.minimum(va, vb), stored[:, 0])
        assert np.array_equal(np.maximum(va, vb), stored[:, 1])


def test_classify_boundary_is_pure():
    mesh = build_box_mesh((2, 2, 2), origin=(-1, 0, 2), extents=(2, 1, 3))
    be, bv = classify_boundary(mesh)
    assert np.array_equal(be, mesh.boundary_edges)
    assert np.array_equal(bv, mesh.boundary_vertices)


@pytest.mark.parametrize("divisions,extents", [
    ((0, 1, 1), (1, 1, 1)),
    ((1, -2, 1), (1, 1, 1)),
    ((1, 1, 1), (0.0, 1, 1)),
    ((1, 1, 1), (1, 1, -3.0)),
])
def test_rejects_bad_input(divisions, extents):
    with pytest.raises(MeshError):
        build_box_mesh(divisions, extents=extents)


def test_orientation_consistency_symmetric_stiffness():
    # a well-defined global circulation DoF makes the p=2 curl-curl
    # form symmetric to machine precision
    mesh = build_box_mesh((2, 2, 2))
    K = stiffness_matrix(mesh)
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


def test_geometry_is_cached_and_read_only():
    mesh = build_box_mesh((2, 3, 2), extents=(1.0, 2.0, 1.5))
    geom = mesh.geometry
    assert mesh.geometry is geom
    fresh = whitney.cell_geometry(mesh)
    for name in ("vols", "grads", "curls"):
        assert np.array_equal(getattr(geom, name), getattr(fresh, name))
        with pytest.raises(ValueError):
            getattr(geom, name)[0] = 0.0


@pytest.mark.parametrize("divisions", [(1, 1, 1), (3, 3, 3), (4, 3, 5)])
def test_bfs_tree_spans_vertex_graph_level_by_level(divisions):
    mesh = build_box_mesh(divisions)
    depth = np.full(mesh.num_vertices, -1)
    depth[0] = 0
    levels = mesh.bfs_tree(np.arange(mesh.num_vertices),
                           np.arange(mesh.num_edges), 0)
    for d, (via, parent, child) in enumerate(levels, start=1):
        assert np.all(depth[parent] == d - 1)       # reached one level earlier
        assert np.all(depth[child] == -1)           # each vertex reached once
        depth[child] = d
        ends = np.sort(np.column_stack([parent, child]), axis=1)
        assert np.array_equal(mesh.edges[via], ends)
    assert sum(via.size for via, _, _ in levels) == mesh.num_vertices - 1
    assert np.all(depth >= 0)
