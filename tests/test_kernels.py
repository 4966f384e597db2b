"""Element kernels against the `basis_oracle.eval_basis` reference definition.

The kernels contract through the per-tet vertex vectors and never build
the (T, nq, 6, 3) basis array; these tests pin them to that array on a
mesh with jittered interior vertices, where the symmetry of the Kuhn
split cannot hide a swapped index or sign.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from basis_oracle import eval_basis
from pcurlcurl import assembly, mms, whitney
from pcurlcurl.assembly import (EdgeField, assemble_load, curl_per_tet,
                                lp_norm_field, vertex_vectors)
from pcurlcurl.helmholtz import edge_mass_matrix, mass_blocks
from pcurlcurl.io import write_vtk
from pcurlcurl.mesh import Mesh, build_box_mesh
from pcurlcurl.mms import (ManufacturedCase, case_general_p, case_p2_sine,
                           measure_error)
from vtk_reader import assert_same_bits, cell_volumes, positive_rows, read_vtk


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
    return u.coeffs[u.mesh.tet_edges]


def smooth_load(x):
    return np.column_stack([np.sin(x[:, 1]) * x[:, 2], np.cos(x[:, 0] + x[:, 2]),
                            x[:, 0] * x[:, 1] - 0.3])


def test_eval_basis_validates_points():
    geom = build_box_mesh((1, 1, 1)).geometry
    with pytest.raises(ValueError):
        eval_basis(geom, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        eval_basis(geom, [-0.1, 0.6, 0.3, 0.2])


# barycentric point sets: the centroid, the 4 points of the degree-2 tet
# rule, and the points of `TET_RULE`
_A2 = (5.0 - np.sqrt(5.0)) / 20.0
POINT_SETS = {1: np.full((1, 4), 0.25),
              2: np.where(np.eye(4, dtype=bool), 1.0 - 3.0 * _A2, _A2),
              4: whitney.TET_RULE.points}


@pytest.mark.parametrize("order", [1, 2, 4])
def test_eval_field_matches_basis(order):
    mesh = jittered_mesh(3)
    u = random_field(mesh)
    points = POINT_SETS[order]
    W = eval_basis(mesh.geometry, points).reshape(
        mesh.num_tets, points.shape[0], 6, 3)
    expect = np.einsum("te,tqec->tqc", local_coeffs(u), W)
    got = points @ vertex_vectors(u)
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_load_matches_basis():
    mesh = jittered_mesh(3)
    geom = mesh.geometry
    rule = whitney.TET_RULE
    xq = rule.points @ mesh.vertices[mesh.tets]
    Sq = smooth_load(xq.reshape(-1, 3)).reshape(xq.shape)
    W = eval_basis(geom, rule.points)
    per_edge = np.einsum("q,tqc,tqec->te", rule.weights, Sq, W)
    per_edge *= geom.vols[:, None]
    expect = np.zeros(mesh.num_edges)
    np.add.at(expect, mesh.tet_edges.ravel(), per_edge.ravel())
    expect = expect[mesh.free_edges()]
    got = assemble_load(smooth_load, mesh)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_mass_matrix_matches_basis():
    mesh = jittered_mesh(3)
    geom = mesh.geometry
    rule = whitney.TET_RULE         # exact for the degree-2 products W . W
    W = eval_basis(geom, rule.points)
    blocks = np.einsum("q,tqec,tqfc->tef", rule.weights, W, W)
    blocks *= geom.vols[:, None, None]
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


def whole_mesh_measure_error(u_h, case):
    """`measure_error` as one pass over (T, nq, 3) arrays of the whole mesh."""
    mesh = u_h.mesh
    geom = mesh.geometry
    rule = whitney.TET_RULE
    xq = rule.points @ mesh.vertices[mesh.tets]
    err = rule.points @ vertex_vectors(u_h)
    err -= np.asarray(case.u_exact(xq.reshape(-1, 3))).reshape(xq.shape)
    sq = np.einsum("tqc,tqc->tq", err, err)
    l2 = np.sqrt(np.einsum("t,q,tq->", geom.vols, rule.weights, sq))
    cerr = np.asarray(case.curl_exact(xq.reshape(-1, 3))).reshape(xq.shape)
    cerr -= curl_per_tet(u_h)[:, None, :]
    cdiff = np.linalg.norm(cerr, axis=2)
    p = case.p
    curl_err = np.einsum("t,q,tq->", geom.vols, rule.weights, cdiff**p) ** (1.0 / p)
    return float(l2), float(curl_err)


def block_order_measure_error(u_h, case):
    """`measure_error` with its block sums added by a plain loop in block order."""
    sq = lp = 0.0
    for s in range(0, u_h.mesh.num_tets, mms._BLOCK_TETS):
        block = mms._block_sums(u_h, case, slice(s, s + mms._BLOCK_TETS))
        sq += block[0]
        lp += block[1]
    return float(np.sqrt(sq)), float(lp ** (1.0 / case.p))


@pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
def test_blocked_measure_error_matches_whole_mesh_oracle(monkeypatch, p):
    # for any block size the block sums match the whole-mesh oracle, and
    # for any worker count they are added in block order, bit for bit
    mesh = jittered_mesh(3)
    u = random_field(mesh)
    case = case_general_p(p)
    expect = whole_mesh_measure_error(u, case)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)          # interleave the workers finely
    try:
        for block in (1, 7, mesh.num_tets + 5):
            monkeypatch.setattr(mms, "_BLOCK_TETS", block)
            serial = block_order_measure_error(u, case)
            assert serial == pytest.approx(expect, rel=1e-13, abs=0.0)
            for workers in (1, 2, 3):
                monkeypatch.setattr(mms, "_worker_count", lambda: workers)
                assert measure_error(u, case) == serial
    finally:
        sys.setswitchinterval(switch)


def test_measure_error_chunks_do_not_change_a_bit(monkeypatch):
    mesh = jittered_mesh(3)
    u = random_field(mesh)
    case = case_general_p(3.0)
    assert mesh.num_tets <= mms._CHUNK_TETS
    expect = measure_error(u, case)
    for chunk in (1, 5):
        monkeypatch.setattr(mms, "_CHUNK_TETS", chunk)
        assert measure_error(u, case) == expect


def test_measure_error_runs_at_most_max_workers_threads(monkeypatch):
    # the traced peak is about one block's arrays per worker: the worker
    # count must not grow with the CPUs
    mesh = build_box_mesh((4, 4, 4))
    u = random_field(mesh)
    monkeypatch.setattr(mms, "_BLOCK_TETS", 1)
    monkeypatch.setattr(mms.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert mms._worker_count() == mms._MAX_WORKERS
    threads = set()

    def u_exact(x):
        threads.add(threading.get_ident())
        time.sleep(0.0002)
        return np.zeros_like(x)

    case = ManufacturedCase("threads", 2.0, u_exact, mms._curl_exact, None)
    measure_error(u, case)
    assert 1 <= len(threads) <= mms._MAX_WORKERS


def wait_for_thread_count(count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while threading.active_count() != count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


def test_measure_error_raises_a_block_error_and_joins_its_workers(monkeypatch):
    mesh = build_box_mesh((4, 4, 4))
    u = random_field(mesh)
    monkeypatch.setattr(mms, "_BLOCK_TETS", 1)
    monkeypatch.setattr(mms, "_worker_count", lambda: 2)
    third = whitney.TET_RULE.points @ mesh.vertices[mesh.tets[2]]
    calls = []

    def u_exact(x):
        calls.append(None)
        if x.shape == third.shape and np.allclose(x, third):
            raise FloatingPointError("third block")
        time.sleep(0.001)
        return np.zeros_like(x)

    case = ManufacturedCase("raises", 2.0, u_exact, mms._curl_exact, None)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="third block"):
        measure_error(u, case)
    assert wait_for_thread_count(before) == before
    assert len(calls) < mesh.num_tets          # pending blocks were cancelled


def test_import_and_one_block_measure_error_start_no_thread():
    code = """
import threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self.name), start(self))
import numpy as np
import pcurlcurl
from pcurlcurl import mms
from pcurlcurl.assembly import EdgeField
from pcurlcurl.mesh import build_box_mesh
mesh = build_box_mesh((3, 3, 3))
assert mesh.num_tets <= mms._BLOCK_TETS
u = EdgeField(mesh, np.ones(mesh.num_edges))
mms.measure_error(u, mms.case_p2_sine())
print(started, threading.active_count())
"""
    src = os.path.dirname(os.path.dirname(mms.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src), text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["[]", "1"]


def whole_mesh_lp_norm_field(u, p):
    """`lp_norm_field` as one pass over (T, nq, 3) arrays of the whole mesh."""
    rule = whitney.TET_RULE
    mag = np.linalg.norm(rule.points @ vertex_vectors(u), axis=2)
    total = np.einsum("t,q,tq->", u.mesh.geometry.vols, rule.weights, mag**p)
    return float(total ** (1.0 / p))


@pytest.mark.parametrize("p", [2.0, 3.0, 10.0])
def test_blocked_lp_norm_field_matches_whole_mesh_oracle(monkeypatch, p):
    mesh = jittered_mesh(3)
    u = random_field(mesh)
    expect = whole_mesh_lp_norm_field(u, p)
    for block in (1, 7, mesh.num_tets + 5):
        monkeypatch.setattr(assembly, "_BLOCK_TETS", block)
        assert lp_norm_field(u, p) == pytest.approx(expect, rel=1e-13, abs=0.0)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peaks_stay_below_one_basis_array(monkeypatch, tmp_path):
    # the worker count sets how many blocks are live at once, so the
    # bound below holds for this count, not for any machine's CPUs
    monkeypatch.setattr(mms, "_worker_count", lambda: 2)
    mesh = build_box_mesh((12, 12, 12))
    mesh.geometry
    u = random_field(mesh).zero_boundary()
    rule = whitney.TET_RULE
    basis_bytes = 8 * mesh.num_tets * rule.weights.size * 6 * 3
    corner_bytes = 8 * mesh.num_tets * 4 * 6 * 3
    assert traced_peak(lambda: rule.points @ vertex_vectors(u)) < basis_bytes
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


def test_lp_norm_field_traced_peak_does_not_grow_with_the_mesh():
    peaks = []
    for n in (16, 24):
        mesh = build_box_mesh((n, n, n))
        mesh.geometry
        assert mesh.num_tets > assembly._BLOCK_TETS
        u = random_field(mesh).zero_boundary()
        peaks.append(traced_peak(lambda: lp_norm_field(u, 4.0)))
    assert peaks[1] <= 1.1 * peaks[0]


def test_vtk_cells_are_positively_oriented(tmp_path):
    box = build_box_mesh((2, 3, 2), extents=(1.0, 1.3, 0.8))
    raw = jittered_mesh(2)
    assert box.geometry.flipped.any() and raw.geometry.flipped.any()
    for k, mesh in enumerate((box, raw)):
        path = tmp_path / f"f{k}.vtk"
        write_vtk(path, mesh, random_field(mesh))
        vtk = read_vtk(path)
        vols = cell_volumes(mesh.vertices, vtk.cells[:, 1:])
        assert np.all(vols > 0)
        assert np.allclose(vols, mesh.geometry.vols, rtol=1e-12)


def test_vtk_matches_arrays_and_basis_average(tmp_path):
    mesh = jittered_mesh(2)
    u = random_field(mesh)
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, u)
    vtk = read_vtk(path)
    assert vtk.name == vtk.point_data_name == "field"
    assert_same_bits(vtk.points, mesh.vertices)
    assert np.array_equal(vtk.cells, np.column_stack(
        [np.full(mesh.num_tets, 4), positive_rows(mesh)]))
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
