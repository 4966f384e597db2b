import numpy as np
import pytest

from pcurlcurl import whitney
from pcurlcurl.assembly import EdgeField, assemble_gradient_map, curl_per_tet
from pcurlcurl.helmholtz import DivFreeProjector, edge_mass_matrix
from pcurlcurl.mesh import LOCAL_EDGES, Mesh, build_box_mesh


def single_tet_mesh():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2, 3]]), ((0, 0, 0), (1, 1, 1)))


def test_mass_matrix_single_tet_symbolic_oracle():
    # int W_ab . W_cd expands into grad-dot products against the
    # closed-form barycentric moments int lam_a lam_c = V (1 + delta) / 20
    mesh = single_tet_mesh()
    geom = whitney.cell_geometry(mesh)
    vol = geom.vols[0]
    grads = geom.grads[0]
    lam_mom = vol * (np.ones((4, 4)) + np.eye(4)) / 20.0
    gdot = grads @ grads.T
    oracle = np.zeros((6, 6))
    for e, (a, b) in enumerate(LOCAL_EDGES):
        for f, (c, d) in enumerate(LOCAL_EDGES):
            oracle[e, f] = (lam_mom[a, c] * gdot[b, d]
                            - lam_mom[a, d] * gdot[b, c]
                            - lam_mom[b, c] * gdot[a, d]
                            + lam_mom[b, d] * gdot[a, c])
    M = edge_mass_matrix(mesh).toarray()
    # map local edge order to global edge numbering (signs are +1 here
    # because the single tet is stored with ascending vertices)
    perm = mesh.tet_edges[0]
    assert np.all(mesh.tet_edge_signs[0] == 1)
    assert np.allclose(M[np.ix_(perm, perm)], oracle, atol=1e-15)


def test_mass_matrix_spd():
    mesh = build_box_mesh((2, 2, 2))
    M = edge_mass_matrix(mesh)
    assert abs(M - M.T).max() < 1e-15
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(mesh.num_edges)
        assert x @ (M @ x) > 0.0


def test_mass_matrix_infinity_norm_scales_linearly_in_h():
    # circulation DoFs carry a length: entries int W.W ~ h^3 * h^-2 = h,
    # so the infinity norm halves per refinement
    norms = []
    for n in (2, 4, 8):
        mesh = build_box_mesh((n, n, n), extents=(1.0, 1.0, 1.0))
        M = edge_mass_matrix(mesh)
        norms.append(np.abs(M).sum(axis=1).max())
    assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.15)
    assert norms[1] / norms[2] == pytest.approx(2.0, rel=0.15)


def test_projection_kills_gradients():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(1)
    G = assemble_gradient_map(mesh)
    psi = rng.standard_normal(G.shape[1])
    u = EdgeField(mesh, G @ psi)
    u0, phi = DivFreeProjector(mesh).project(u, tol=1e-13)
    assert np.linalg.norm(u0.coeffs) <= 1e-10 * np.linalg.norm(u.coeffs)
    assert np.allclose(phi.coeffs[mesh.interior_vertices()], psi, atol=1e-10)


def test_projection_idempotent():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(2)
    proj = DivFreeProjector(mesh)
    u = EdgeField(mesh)
    u.coeffs[mesh.free_edges()] = rng.standard_normal(mesh.free_edges().size)
    u0, _ = proj.project(u, tol=1e-12)
    again, phi = proj.project(u0, tol=1e-12)
    scale = np.linalg.norm(u0.coeffs)
    assert np.linalg.norm(again.coeffs - u0.coeffs) <= 1e-10 * scale
    assert np.linalg.norm(phi.coeffs) <= 1e-10 * scale


def test_projection_constraint_reduction():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(3)
    proj = DivFreeProjector(mesh)
    u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
    u0, _ = proj.project(u, tol=1e-12)
    before = proj.constraint_norm(u.coeffs)
    after = proj.constraint_norm(u0.coeffs)
    assert after <= 1e-10 * before


def test_projection_energy_split_and_curl_invariance():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(4)
    proj = DivFreeProjector(mesh)
    u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
    u0, phi = proj.project(u, tol=1e-13)
    M = proj.M
    g = proj.G @ phi.coeffs[mesh.interior_vertices()]
    total = u.coeffs @ (M @ u.coeffs)
    split = u0.coeffs @ (M @ u0.coeffs) + g @ (M @ g)
    assert abs(total - split) <= 1e-10 * total
    assert np.abs(curl_per_tet(u0) - curl_per_tet(u)).max() < 1e-12


def test_projection_preserves_boundary_invariant():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(5)
    u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
    u0, _ = DivFreeProjector(mesh).project(u)
    assert u0.boundary_ok(tol=0.0)
