"""Element kernels against the `basis_oracle.eval_basis` reference definition.

The kernels contract through the per-tet vertex vectors and never build
the (T, nq, 6, 3) basis array; these tests pin them to that array on a
mesh with jittered interior vertices, where the symmetry of the Kuhn
split cannot hide a swapped index or sign.
"""

import tracemalloc

import numpy as np
import pytest

from basis_oracle import eval_basis
from pcurlcurl import mms, whitney
from pcurlcurl.assembly import (EdgeField, assemble_load, curl_per_tet,
                                eval_field)
from pcurlcurl.helmholtz import edge_mass_matrix, mass_blocks
from pcurlcurl.io import write_vtk
from pcurlcurl.mesh import Mesh, build_box_mesh
from pcurlcurl.mms import case_general_p, case_p2_sine, measure_error
from pcurlcurl.verify import _ratio_and_grad
from vtk_reader import assert_same_bits, read_vtk


def jittered_mesh(n, seed=0):
    base = build_box_mesh((n, n, n), extents=(1.0, 1.3, 0.8))
    verts = base.vertices.copy()
    inner = base.interior_vertices()
    h = 0.8 / n
    rng = np.random.default_rng(seed)
    verts[inner] += rng.uniform(-0.15 * h, 0.15 * h, (inner.size, 3))
    return Mesh(verts, base.tets, base.box)


def random_field(mesh, seed=1):
    return EdgeField(mesh, np.random.default_rng(seed).standard_normal(mesh.num_edges))


def local_coeffs(u):
    return u.coeffs[u.mesh.tet_edges] * u.mesh.tet_edge_signs


def smooth_load(x):
    return np.column_stack([np.sin(x[:, 1]) * x[:, 2], np.cos(x[:, 0] + x[:, 2]),
                            x[:, 0] * x[:, 1] - 0.3])


def test_eval_basis_validates_points():
    geom = build_box_mesh((1, 1, 1)).geometry
    with pytest.raises(ValueError):
        eval_basis(geom, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        eval_basis(geom, [-0.1, 0.6, 0.3, 0.2])


@pytest.mark.parametrize("order", [1, 2, 4])
def test_eval_field_matches_basis(order):
    mesh = jittered_mesh(3)
    u = random_field(mesh)
    rule = whitney.quadrature(order)
    W = eval_basis(mesh.geometry, rule.points).reshape(
        mesh.num_tets, rule.weights.size, 6, 3)
    expect = np.einsum("te,tqec->tqc", local_coeffs(u), W)
    got = eval_field(u, rule)
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_load_matches_basis():
    mesh = jittered_mesh(3)
    geom = mesh.geometry
    rule = whitney.quadrature(4)
    xq = whitney.quad_points_physical(mesh, rule)
    Sq = smooth_load(xq.reshape(-1, 3)).reshape(xq.shape)
    W = eval_basis(geom, rule.points)
    per_edge = np.einsum("q,tqc,tqec->te", rule.weights, Sq, W)
    per_edge *= geom.vols[:, None] * mesh.tet_edge_signs
    expect = np.zeros(mesh.num_edges)
    np.add.at(expect, mesh.tet_edges.ravel(), per_edge.ravel())
    expect = expect[mesh.free_edges()]
    got = assemble_load(smooth_load, mesh)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_mass_matrix_matches_basis():
    mesh = jittered_mesh(3)
    geom = mesh.geometry
    rule = whitney.quadrature(2)
    W = eval_basis(geom, rule.points)
    blocks = np.einsum("q,tqec,tqfc->tef", rule.weights, W, W)
    signs = mesh.tet_edge_signs
    blocks *= geom.vols[:, None, None] * signs[:, :, None] * signs[:, None, :]
    expect = np.zeros((mesh.num_edges, mesh.num_edges))
    e = mesh.tet_edges
    np.add.at(expect, (e[:, :, None], e[:, None, :]), blocks)
    scale = np.abs(expect).max()
    got = np.zeros_like(expect)
    np.add.at(got, (e[:, :, None], e[:, None, :]), mass_blocks(mesh))
    assert np.abs(got - expect).max() <= 1e-14 * scale
    free = mesh.free_edges()
    got = edge_mass_matrix(mesh).toarray()
    assert np.abs(got - expect[np.ix_(free, free)]).max() <= 1e-14 * scale


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_ascent_gradient_matches_central_differences(p):
    mesh = jittered_mesh(3)
    free = mesh.free_edges()
    u = random_field(mesh).zero_boundary()
    _, grad = _ratio_and_grad(u, p)

    def log_ratio(coeffs):
        v = EdgeField(mesh, coeffs)
        return np.log(_ratio_and_grad(v, p)[0])

    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(4):
        d = np.zeros(mesh.num_edges)
        d[free] = rng.standard_normal(free.size)
        fd = (log_ratio(u.coeffs + h * d) - log_ratio(u.coeffs - h * d)) / (2 * h)
        assert grad @ d[free] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def whole_mesh_measure_error(u_h, case):
    """`measure_error` as one pass over (T, nq, 3) arrays of the whole mesh."""
    mesh = u_h.mesh
    geom = mesh.geometry
    rule = whitney.quadrature(4)
    xq = whitney.quad_points_physical(mesh, rule)
    err = eval_field(u_h, rule)
    err -= np.asarray(case.u_exact(xq.reshape(-1, 3))).reshape(xq.shape)
    sq = np.einsum("tqc,tqc->tq", err, err)
    l2 = np.sqrt(np.einsum("t,q,tq->", geom.vols, rule.weights, sq))
    cerr = np.asarray(case.curl_exact(xq.reshape(-1, 3))).reshape(xq.shape)
    cerr -= curl_per_tet(u_h)[:, None, :]
    cdiff = np.linalg.norm(cerr, axis=2)
    p = case.p
    curl_err = np.einsum("t,q,tq->", geom.vols, rule.weights, cdiff**p) ** (1.0 / p)
    return float(l2), float(curl_err)


@pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
def test_blocked_measure_error_matches_whole_mesh_oracle(monkeypatch, p):
    mesh = jittered_mesh(3)
    u = random_field(mesh)
    case = case_general_p(p)
    expect = whole_mesh_measure_error(u, case)
    for block in (1, 7, mesh.num_tets + 5):
        monkeypatch.setattr(mms, "_BLOCK_TETS", block)
        got = measure_error(u, case)
        assert got == pytest.approx(expect, rel=1e-13, abs=0.0)
        assert measure_error(u, case) == got


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peaks_stay_below_one_basis_array(tmp_path):
    mesh = build_box_mesh((12, 12, 12))
    mesh.geometry
    u = random_field(mesh).zero_boundary()
    rule = whitney.quadrature(4)
    basis_bytes = 8 * mesh.num_tets * rule.weights.size * 6 * 3
    corner_bytes = 8 * mesh.num_tets * 4 * 6 * 3
    assert traced_peak(lambda: eval_field(u, rule)) < basis_bytes
    assert traced_peak(lambda: measure_error(u, case_p2_sine())) < basis_bytes
    assert traced_peak(lambda: write_vtk(tmp_path / "f.vtk", mesh, u)) < corner_bytes
    # measure_error streams over tet blocks: its peak does not grow with T
    peaks = []
    for n in (16, 24):
        big = build_box_mesh((n, n, n))
        big.geometry
        assert big.num_tets > mms._BLOCK_TETS
        v = random_field(big).zero_boundary()
        peaks.append(traced_peak(lambda: measure_error(v, case_p2_sine())))
    assert peaks[1] <= 1.1 * peaks[0]


def test_vtk_matches_arrays_and_basis_average(tmp_path):
    mesh = jittered_mesh(2)
    u = random_field(mesh)
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, u)
    vtk = read_vtk(path)
    assert vtk.name == vtk.point_data_name == "field"
    assert_same_bits(vtk.points, mesh.vertices)
    assert np.array_equal(vtk.cells, np.column_stack(
        [np.full(mesh.num_tets, 4), mesh.tets]))
    assert np.array_equal(vtk.cell_types, np.full(mesh.num_tets, 10))
    assert_same_bits(vtk.cell_data, curl_per_tet(u))

    W = eval_basis(mesh.geometry, np.eye(4))
    at_corners = np.einsum("te,tqec->tqc", local_coeffs(u), W)
    expect = np.zeros((mesh.num_vertices, 3))
    np.add.at(expect, mesh.tets.ravel(), at_corners.reshape(-1, 3))
    expect /= np.bincount(mesh.tets.ravel())[:, None]
    got = vtk.point_data
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
