import numpy as np
import pytest

from pcurlcurl import whitney
from pcurlcurl.assembly import (EdgeField, assemble_gradient_map, curl_per_tet,
                                edge_interpolate, edge_moments, field_at)
from pcurlcurl.helmholtz import DivFreeProjector, edge_mass_matrix, mass_blocks
from pcurlcurl.mesh import LOCAL_EDGES, Mesh, MeshError, build_box_mesh
from pcurlcurl.mms import case_general_p
from pcurlcurl.solver import SolveConfig, solve
from pcurlcurl.verify import friedrich_constant


def dense_mass_all_edges(mesh):
    """Dense all x all mass matrix by np.add.at of the element blocks."""
    M = np.zeros((mesh.num_edges, mesh.num_edges))
    e = mesh.tet_edges
    np.add.at(M, (e[:, :, None], e[:, None, :]), mass_blocks(mesh))
    return M


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
    # every edge of a lone tet is a boundary edge, so the free x free M
    # is empty and the all-edge assembly carries the property
    assert edge_mass_matrix(mesh).shape == (0, 0)
    M = dense_mass_all_edges(mesh)
    # map local edge order to global edge numbering: the tet row is
    # ascending, so every local edge has its global direction
    perm = mesh.tet_edges[0]
    assert np.all(np.diff(mesh.tets[0]) > 0)
    assert np.allclose(M[np.ix_(perm, perm)], oracle, atol=1e-15)


def test_mass_matrix_spd():
    mesh = build_box_mesh((2, 2, 2))
    M = dense_mass_all_edges(mesh)
    assert np.abs(M - M.T).max() < 1e-15
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
        M = dense_mass_all_edges(mesh)
        norms.append(np.abs(M).sum(axis=1).max())
    assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.15)
    assert norms[1] / norms[2] == pytest.approx(2.0, rel=0.15)


def test_projection_kills_gradients():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(1)
    G = assemble_gradient_map(mesh)
    psi = rng.standard_normal(G.shape[1])
    u = EdgeField(mesh, G @ psi)
    u0, phi = DivFreeProjector(mesh).project(u)
    assert np.linalg.norm(u0.coeffs) <= 1e-10 * np.linalg.norm(u.coeffs)
    assert np.allclose(phi.coeffs[mesh.interior_vertices()], psi, atol=1e-10)


def test_projection_idempotent():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(2)
    proj = DivFreeProjector(mesh)
    u = EdgeField(mesh)
    u.coeffs[mesh.free_edges()] = rng.standard_normal(mesh.free_edges().size)
    u0, _ = proj.project(u)
    again, phi = proj.project(u0)
    scale = np.linalg.norm(u0.coeffs)
    assert np.linalg.norm(again.coeffs - u0.coeffs) <= 1e-10 * scale
    assert np.linalg.norm(phi.coeffs) <= 1e-10 * scale


def test_strip_gradient_removes_exactly_m_g_phi_and_is_idempotent():
    mesh = build_box_mesh((3, 3, 3))
    proj = DivFreeProjector(mesh)
    free = mesh.free_edges()
    b = np.random.default_rng(6).standard_normal(free.size)
    b0, phi = proj.strip_gradient(b)
    g = proj.M @ (proj.G @ phi.coeffs[mesh.interior_vertices()])
    assert np.abs(b - b0 - g).max() <= 1e-14 * np.abs(b).max()
    assert np.all(phi.coeffs[mesh.boundary_vertices] == 0.0)
    # the cleaned functional pairs to zero with every interior gradient
    assert np.linalg.norm(proj.G.T @ b0) <= 1e-12 * np.linalg.norm(b)
    again, phi2 = proj.strip_gradient(b0)
    assert np.linalg.norm(again - b0) <= 1e-12 * np.linalg.norm(b0)
    assert np.linalg.norm(phi2.coeffs) <= 1e-10 * np.linalg.norm(phi.coeffs)


def test_projection_constraint_reduction():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(3)
    proj = DivFreeProjector(mesh)
    u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
    u0, _ = proj.project(u)
    before = proj.constraint_norm(u.coeffs)
    after = proj.constraint_norm(u0.coeffs)
    assert after <= 1e-10 * before


def test_projection_energy_split_and_curl_invariance():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(4)
    proj = DivFreeProjector(mesh)
    u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
    u0, phi = proj.project(u)
    M, free = proj.M, mesh.free_edges()
    g = proj.G @ phi.coeffs[mesh.interior_vertices()]
    total = u.coeffs[free] @ (M @ u.coeffs[free])
    split = u0.coeffs[free] @ (M @ u0.coeffs[free]) + g @ (M @ g)
    assert abs(total - split) <= 1e-10 * total
    assert np.abs(curl_per_tet(u0) - curl_per_tet(u)).max() < 1e-12


def test_projection_preserves_boundary_invariant():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(5)
    u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
    u0, _ = DivFreeProjector(mesh).project(u)
    assert not u0.coeffs[mesh.boundary_edges].any()


@pytest.mark.parametrize("divisions, origin, extents", [
    ((3, 3, 3), (0, 0, 0), (1, 1, 1)),
    ((5, 4, 3), (-1, 0, 2), (2, 1, 3)),
    ((6, 6, 6), (0, 0, 0), (1, 1, 5)),
    ((2, 2, 2), (0, 0, 0), (1, 1, 1)),
    ((1, 1, 1), (0, 0, 0), (1, 1, 1)),
], ids=["3x3x3", "5x4x3-offset", "6x6x6-long", "2x2x2", "1x1x1"])
def test_sine_solve_matches_all_edge_oracle(divisions, origin, extents):
    # a boundary edge's row of G is empty, so the potential of the free
    # x free M and the free rows of G solves the all-edge G^T M G system
    mesh = build_box_mesh(divisions, origin, extents)
    G = assemble_gradient_map(mesh).toarray()
    oracle = G.T @ dense_mass_all_edges(mesh) @ G
    b = np.zeros(mesh.num_edges)
    free = mesh.free_edges()
    b[free] = np.random.default_rng(7).standard_normal(free.size)
    _, phi = DivFreeProjector(mesh).strip_gradient(b[free])
    rhs = G.T @ b
    res = oracle @ phi.coeffs[mesh.interior_vertices()] - rhs
    assert np.linalg.norm(res) <= 1e-13 * np.linalg.norm(rhs)
    assert not phi.coeffs[mesh.boundary_vertices].any()


def test_raw_array_mesh_projector_raises_mesh_error():
    box = build_box_mesh((3, 3, 3))
    raw = Mesh(box.vertices, box.tets, box.box)
    with pytest.raises(MeshError, match="build_box_mesh"):
        DivFreeProjector(raw)


def test_projector_rejects_a_nonzero_boundary_circulation():
    mesh = build_box_mesh((2, 2, 2))
    proj = DivFreeProjector(mesh)
    u = EdgeField(mesh)
    u.coeffs[mesh.free_edges()] = 1.0
    proj.project(u)
    u.coeffs[mesh.boundary_edges[3]] = 0.5
    with pytest.raises(ValueError, match="boundary circulation"):
        proj.project(u)
    with pytest.raises(ValueError, match="boundary circulation"):
        proj.constraint_norm(u.coeffs)


@pytest.mark.parametrize("n", [3, 6])
def test_edge_field_load_matches_all_edge_mass_pairing(n):
    # the moments (S, W_i) of a Whitney field, the load form of the
    # Friedrich iteration's |u|^(p-2) u, pair with the free-edge basis
    # through all of its coefficients, boundary circulations included:
    # (M_all S)[free], exactly, since the order-4 rule integrates W . W
    mesh = build_box_mesh((n, n, n))
    S = edge_interpolate(lambda x: np.column_stack(
        [np.cos(x[:, 1]), np.sin(x[:, 2]), np.cos(x[:, 0])]), mesh)
    assert np.abs(S.coeffs[mesh.boundary_edges]).max() > 0.1
    expect = (dense_mass_all_edges(mesh) @ S.coeffs)[mesh.free_edges()]
    got = edge_moments(mesh, lambda tets: field_at(S, tets))
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

def test_projector_methods_take_no_tolerance():
    # every G^T M G solve is direct, so no caller passes a tolerance
    import inspect

    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(DivFreeProjector.project) == ["self", "u"]
    assert names(DivFreeProjector.strip_gradient) == ["self", "b"]


def test_every_potential_solve_is_an_exact_sine_solve(monkeypatch):
    # the load strip, each Newton right-hand side, the answer's
    # projection, the multiplier and the Friedrich column projections
    exact = []
    real = DivFreeProjector._potential

    def recording(self, rhs):
        phi = real(self, rhs)
        res = self.Gt @ (self.M @ (self.G @ phi)) - rhs
        exact.append(np.linalg.norm(res) <= 1e-13 * np.linalg.norm(rhs))
        return phi

    monkeypatch.setattr(DivFreeProjector, "_potential", recording)
    mesh = build_box_mesh((4, 4, 4), extents=(np.pi,) * 3)
    _, _, rep = solve(mesh, case_general_p(10.0).load,
                      SolveConfig(p_target=10.0))
    assert len(exact) == rep.total_newton_iterations + 3
    friedrich_constant([build_box_mesh((3, 3, 3))], 2.0)
    assert len(exact) > rep.total_newton_iterations + 3
    assert all(exact)
