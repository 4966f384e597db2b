import math

import numpy as np
import pytest

from basis_oracle import eval_basis
from pcurlcurl.mesh import LOCAL_EDGES, Mesh, MeshError, build_box_mesh
from pcurlcurl import whitney


def reference_tet_mesh():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2, 3]]), ((0, 0, 0), (1, 1, 1)))


def barycentric_moment(alpha, vol):
    """int lam^alpha dV = 6V * prod(a_i!) / (sum a_i + 3)!"""
    num = 1.0
    for a in alpha:
        num *= math.factorial(a)
    return 6.0 * vol * num / math.factorial(sum(alpha) + 3)


def test_barycentric_gradients_sum_to_zero():
    mesh = build_box_mesh((2, 2, 2), extents=(1.0, 2.0, 0.5))
    geom = whitney.cell_geometry(mesh)
    assert np.allclose(geom.grads.sum(axis=1), 0.0, atol=1e-13)
    # grad(lam_j) . (v_i - v_0) reproduces the barycentric deltas
    v = mesh.vertices[mesh.tets]
    for j in range(4):
        for i in range(1, 4):
            dots = np.einsum("tc,tc->t", geom.grads[:, j], v[:, i] - v[:, 0])
            expect = (1.0 if i == j else 0.0) - (1.0 if j == 0 else 0.0)
            assert np.allclose(dots, expect, atol=1e-12)


def test_degenerate_tet_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0.5, 0.5, 0.0]])
    flat = Mesh(verts, np.array([[0, 1, 2, 3]]), ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(MeshError):
        whitney.cell_geometry(flat)


def test_nan_volume_rejected():
    # NaN passes `vols <= 0`, so the check is written as `vols > 0`
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, np.nan]])
    nan_tet = Mesh(verts, np.array([[0, 1, 2, 3]]), ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(MeshError), np.errstate(invalid="ignore"):
        whitney.cell_geometry(nan_tet)


def test_negatively_oriented_tet_accepted():
    # orientation enters no formula: the mirror-image vertex order gives
    # the same volume and the same edge functions, relabelled; only the
    # flag differs
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    box = ((0, 0, 0), (1, 1, 1))
    right = whitney.cell_geometry(Mesh(verts, np.array([[0, 1, 2, 3]]), box))
    left = whitney.cell_geometry(Mesh(verts[[0, 2, 1, 3]],
                                      np.array([[0, 1, 2, 3]]), box))
    assert right.vols[0] == left.vols[0] == pytest.approx(1.0 / 6.0)
    assert not right.flipped[0] and left.flipped[0]
    # swapping vertices 1 and 2 swaps local edges (0, 1) and (0, 2),
    # (1, 3) and (2, 3), and reverses edge (1, 2)
    swap, sign = [1, 0, 2, 3, 5, 4], np.array([1, 1, 1, -1, 1, 1])
    assert np.array_equal(left.curls[0], sign[:, None] * right.curls[0][swap])


def test_circulation_normalization():
    """Line integral of W_ij along edge (i->j) is 1, along others 0."""
    mesh = build_box_mesh((1, 1, 1))
    geom = whitney.cell_geometry(mesh)
    t, w = whitney.GAUSS_SEGMENT.points, whitney.GAUSS_SEGMENT.weights
    x, wx = np.polynomial.legendre.leggauss(4)
    assert t.tobytes() == (0.5 * (x + 1.0)).tobytes()
    assert w.tobytes() == (0.5 * wx).tobytes()
    verts = mesh.vertices[mesh.tets]
    for k, (a, b) in enumerate(LOCAL_EDGES):
        # barycentric path along the edge a->b
        lam = np.zeros((t.size, 4))
        lam[:, a] = 1 - t
        lam[:, b] = t
        W = eval_basis(geom, lam)           # (T, nq, 6, 3)
        tangents = verts[:, b] - verts[:, a]        # (T, 3)
        circ = np.einsum("q,tqec,tc->te", w, W, tangents)
        expect = np.zeros(6)
        expect[k] = 1.0
        assert np.allclose(circ, expect[None, :], atol=1e-13)


def test_midpoint_value_of_edge_function():
    # at the midpoint of edge (0,1): W_01 = (grad lam_1 - grad lam_0) / 2
    mesh = build_box_mesh((1, 1, 1))
    geom = whitney.cell_geometry(mesh)
    lam = np.array([0.5, 0.5, 0.0, 0.0])
    W = eval_basis(geom, lam)
    expect = 0.5 * (geom.grads[:, 1] - geom.grads[:, 0])
    assert np.allclose(W[:, 0, :], expect, atol=1e-14)


def test_curl_formula_and_gradient_kernel():
    mesh = build_box_mesh((2, 2, 2))
    geom = whitney.cell_geometry(mesh)
    for k, (i, j) in enumerate(LOCAL_EDGES):
        expect = 2.0 * np.cross(geom.grads[:, i], geom.grads[:, j])
        assert np.allclose(geom.curls[:, k], expect, atol=1e-14)
    # nodal potential -> edge differences -> exactly zero curl per tet
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(mesh.num_vertices)
    u = phi[mesh.edges[:, 1]] - phi[mesh.edges[:, 0]]
    local = u[mesh.tet_edges]
    g = np.einsum("te,tec->tc", local, geom.curls)
    assert np.abs(g).max() < 1e-12


def test_constant_fields_reproduced_exactly():
    mesh = build_box_mesh((2, 1, 2), extents=(1.0, 1.3, 0.7))
    geom = whitney.cell_geometry(mesh)
    c = np.array([0.4, -1.1, 2.2])
    coeffs = (mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]) @ c
    W = eval_basis(geom, whitney.TET_RULE.points)
    local = coeffs[mesh.tet_edges]
    vals = np.einsum("te,tqec->tqc", local, W)
    assert np.allclose(vals, c, atol=1e-13)
    g = np.einsum("te,tec->tc", local, geom.curls)
    assert np.abs(g).max() < 1e-12


def test_quadrature_weights():
    rule = whitney.TET_RULE
    assert np.all(rule.weights > 0)
    assert np.isclose(rule.weights.sum(), 1.0, rtol=1e-14)
    assert np.all(rule.points >= 0) and np.all(rule.points <= 1)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_quadrature_moment_exactness():
    rule = whitney.TET_RULE
    vol = 1.0 / 6.0  # reference tet
    for total in range(6):
        for alpha in _compositions(total, 4):
            approx = vol * np.sum(
                rule.weights * np.prod(rule.points ** np.array(alpha), axis=1))
            exact = barycentric_moment(alpha, vol)
            assert abs(approx - exact) <= 1e-15, alpha


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def test_order2_integrates_lam0_lam1_to_1_over_120():
    # classic check: on the reference tet (volume 1/6) the product of two
    # distinct barycentrics integrates to 1/120
    rule = whitney.TET_RULE
    val = (1.0 / 6.0) * np.sum(rule.weights * rule.points[:, 0] * rule.points[:, 1])
    assert abs(val - 1.0 / 120.0) < 1e-16
    # Monte Carlo cross-check of the moment formula itself
    rng = np.random.default_rng(11)
    lam = rng.dirichlet(np.ones(4), size=400000)
    mc = (1.0 / 6.0) * np.mean(lam[:, 0] * lam[:, 1])
    assert abs(mc - 1.0 / 120.0) < 2e-5


def test_rules_are_read_only():
    # every caller shares the module's rules, so none may change them
    for rule in (whitney.TET_RULE, whitney.TRIANGLE_RULE,
                 whitney.GAUSS_SEGMENT):
        assert not rule.points.flags.writeable
        assert not rule.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        whitney.TET_RULE.points[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        whitney.TRIANGLE_RULE.weights[:] = 0.0


def test_triangle_quadrature_exactness():
    rule = whitney.TRIANGLE_RULE
    assert np.all(rule.weights > 0)
    assert np.isclose(rule.weights.sum(), 1.0, rtol=1e-14)
    area = 0.5  # reference triangle
    for total in range(6):
        for alpha in _compositions(total, 3):
            approx = area * np.sum(
                rule.weights * np.prod(rule.points ** np.array(alpha), axis=1))
            num = 1.0
            for a in alpha:
                num *= math.factorial(a)
            exact = 2.0 * area * num / math.factorial(total + 2)
            assert abs(approx - exact) <= 1e-15, alpha
