import tracemalloc

import numpy as np
import pytest

from basis_oracle import whole_mesh_edge_moments
from pcurlcurl import assembly, whitney
from pcurlcurl.assembly import (EdgeField, PExponent, assemble_gradient_map,
                                assemble_jacobian, assemble_load,
                                assemble_residual, curl_per_tet, edge_moments,
                                edge_interpolate, field_at, local_coeffs,
                                lp_norm_curl, lp_norm_field, power_map,
                                scatter_blocks, stiffness_blocks,
                                vertex_vectors)
from pcurlcurl.helmholtz import edge_mass_matrix
from pcurlcurl.linalg import cg
from pcurlcurl.mesh import LOCAL_EDGES, build_box_mesh
from pcurlcurl.mms import case_general_p
from pcurlcurl.verify import check_ineq2

PI = np.pi


def dense_all_edges(mesh, blocks):
    """Dense all x all sum of (T, 6, 6) element blocks, the scatter's oracle."""
    dense = np.zeros((mesh.num_edges, mesh.num_edges))
    e = mesh.tet_edges
    np.add.at(dense, (e[:, :, None], e[:, None, :]), blocks)
    return dense


def random_free_field(mesh, rng, scale=1.0):
    u = EdgeField(mesh)
    u.coeffs[mesh.free_edges()] = scale * rng.standard_normal(mesh.free_edges().size)
    return u


def power_map_derivative(g, p: PExponent):
    """Jacobian of power_map w.r.t. g: 3x3 tensors over trailing axis.

    D = m^((p-2)/2) I + (p-2) m^((p-4)/2) g g^T with m = eps^2 + |g|^2.
    Both terms are PSD for p >= 2. Where m = 0 (eps = 0 on a curl-free
    tet) the derivative degenerates to the zero block. The oracle of
    `assemble_jacobian`, which never forms D.
    """
    g = np.asarray(g, dtype=float)
    eye = np.eye(3)
    if p.p == 2.0:
        return np.broadcast_to(eye, g.shape + (3,)).copy()
    msq = p.eps**2 + np.sum(g * g, axis=-1)
    out = np.zeros(g.shape + (3,))
    pos = msq > 0.0
    gp = g[pos]
    mp = msq[pos]
    out[pos] = (np.power(mp, 0.5 * (p.p - 2.0))[:, None, None] * eye
                + (p.p - 2.0) * np.power(mp, 0.5 * (p.p - 4.0))[:, None, None]
                * gp[:, :, None] * gp[:, None, :])
    return out


def test_pexponent_contract():
    pe = PExponent(p=4.0, eps=0.1)
    assert pe.q == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        PExponent(p=1.5)
    with pytest.raises(ValueError):
        PExponent(p=3.0, eps=-1.0)
    for p in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="must be finite"):
            PExponent(p)
    for eps in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="eps must be finite"):
            PExponent(p=4.0, eps=eps)


def test_power_map_values():
    g = np.array([[3.0, 4.0, 0.0]])
    assert np.allclose(power_map(g, PExponent(2.0, eps=0.7)), g)
    assert np.allclose(power_map(g, PExponent(4.0)), [[75.0, 100.0, 0.0]])
    assert np.allclose(power_map(np.zeros((1, 3)), PExponent(3.0)), 0.0)
    # smooth in g for eps > 0: finite derivative at 0
    D = power_map_derivative(np.zeros((1, 3)), PExponent(3.0, eps=0.5))
    assert np.allclose(D[0], 0.5 * np.eye(3))
    # degenerate point contributes a zero block
    D0 = power_map_derivative(np.zeros((1, 3)), PExponent(4.0))
    assert np.all(D0 == 0.0)


def test_power_map_is_the_identity_bit_for_bit_at_p_2():
    # x ** 0.0 is exactly 1.0 for every x, so p = 2 needs no branch of
    # its own; |g|^2 overflows to inf for the huge curls, still a factor 1
    rng = np.random.default_rng(3)
    curls = [rng.standard_normal((50, 3)), np.zeros((4, 3)),
             1e-200 * rng.standard_normal((5, 3)),
             1e200 * rng.standard_normal((5, 3))]
    for eps in (0.0, 1.0):
        for g in curls:
            with np.errstate(over="ignore"):
                out = power_map(g, PExponent(2.0, eps=eps))
            assert out.tobytes() == g.tobytes()


def test_residual_zero_cases():
    mesh = build_box_mesh((2, 2, 2))
    nfree = mesh.free_edges().size
    zero_load = np.zeros(nfree)
    u = EdgeField(mesh)
    assert np.all(assemble_residual(u.mesh, curl_per_tet(u), zero_load,
                                    PExponent(3.0)) == 0.0)
    rng = np.random.default_rng(0)
    load = rng.standard_normal(nfree)
    r = assemble_residual(u.mesh, curl_per_tet(u), load, PExponent(4.0))
    assert np.allclose(r, -load)
    with pytest.raises(ValueError):
        bad = EdgeField(mesh)
        bad.coeffs[0] = np.inf
        assemble_residual(bad.mesh, curl_per_tet(bad), zero_load, PExponent(2.0))


def test_residual_p2_equals_stiffness_action():
    mesh = build_box_mesh((2, 2, 2), extents=(1.0, 1.2, 0.8))
    rng = np.random.default_rng(1)
    u = random_free_field(mesh, rng)
    free = mesh.free_edges()
    load = rng.standard_normal(free.size)
    r = assemble_residual(u.mesh, curl_per_tet(u), load, PExponent(2.0))
    K = scatter_blocks(mesh, stiffness_blocks(mesh))
    expect = K @ u.coeffs[free] - load
    assert np.abs(r - expect).max() < 1e-12 * max(np.abs(expect).max(), 1)


def test_jacobian_p2_is_stiffness():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(2)
    u = random_free_field(mesh, rng)
    J = assemble_jacobian(u.mesh, curl_per_tet(u), PExponent(2.0))
    free = mesh.free_edges()
    K = dense_all_edges(mesh, stiffness_blocks(mesh))[np.ix_(free, free)]
    assert np.abs(J.toarray() - K).max() < 1e-13 * np.abs(K).max()


def test_jacobian_symmetry():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(3)
    u = random_free_field(mesh, rng)
    J = assemble_jacobian(u.mesh, curl_per_tet(u), PExponent(6.0, eps=0.01))
    assert abs(J - J.T).max() <= 1e-12 * abs(J).max()


def test_jacobian_zero_at_degenerate_point():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(mesh.interior_vertices().size)
    G = assemble_gradient_map(mesh)
    u = EdgeField(mesh, G @ phi)       # curl-free everywhere
    J = assemble_jacobian(u.mesh, curl_per_tet(u), PExponent(4.0, eps=0.0))
    assert J.nnz == 0 or abs(J).max() < 1e-24


def test_jacobian_matches_finite_differences():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(5)
    free = mesh.free_edges()
    pe = PExponent(4.0, eps=0.1)
    load = np.zeros(free.size)
    h = 1e-5
    for _ in range(5):
        u = random_free_field(mesh, rng)
        J = assemble_jacobian(u.mesh, curl_per_tet(u), pe)
        d = rng.standard_normal(free.size)
        up = EdgeField(mesh, u.coeffs.copy())
        um = EdgeField(mesh, u.coeffs.copy())
        up.coeffs[free] += h * d
        um.coeffs[free] -= h * d
        fd = (assemble_residual(up.mesh, curl_per_tet(up), load, pe)
              - assemble_residual(um.mesh, curl_per_tet(um), load, pe)) / (2 * h)
        Jd = J @ d
        assert np.linalg.norm(fd - Jd) <= 1e-6 * np.linalg.norm(Jd)


def test_gradient_map_definition_and_kernel():
    mesh = build_box_mesh((3, 3, 3))
    G = assemble_gradient_map(mesh)
    interior = mesh.interior_vertices()
    assert G.shape == (mesh.num_edges, mesh.num_vertices - len(mesh.boundary_vertices))
    rng = np.random.default_rng(6)
    psi = rng.standard_normal(interior.size)
    full = np.zeros(mesh.num_vertices)
    full[interior] = psi
    expect = full[mesh.edges[:, 1]] - full[mesh.edges[:, 0]]
    assert np.allclose(G @ psi, expect, atol=1e-14)
    # the canonical flag is true, not just set: scipy's own check agrees
    assert G.has_canonical_format and np.all(np.abs(G.data) == 1.0)
    fresh = G.copy()
    fresh.has_canonical_format = False
    fresh.sum_duplicates()
    assert np.array_equal(fresh.indptr, G.indptr)
    assert np.array_equal(fresh.indices, G.indices)
    # gradients carry no curl energy at p=2 (zero up to rounding)
    u = EdgeField(mesh, G @ psi)
    K = dense_all_edges(mesh, stiffness_blocks(mesh))
    scale = np.abs(K).max() * np.sum(u.coeffs**2)
    assert abs(u.coeffs @ (K @ u.coeffs)) < 1e-12 * scale


def test_gradient_shift_invariance_of_residual():
    # R(u + G phi) = R(u): gradients are invisible to the curl term
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(7)
    u = random_free_field(mesh, rng)
    G = assemble_gradient_map(mesh)
    phi = rng.standard_normal(G.shape[1])
    shifted = EdgeField(mesh, u.coeffs + G @ phi)
    load = np.zeros(mesh.free_edges().size)
    for pe in (PExponent(2.0), PExponent(4.0, eps=0.05)):
        r1 = assemble_residual(u.mesh, curl_per_tet(u), load, pe)
        r2 = assemble_residual(shifted.mesh, curl_per_tet(shifted), load, pe)
        assert np.abs(r1 - r2).max() < 1e-11 * max(np.abs(r1).max(), 1)


def test_local_coeffs_are_the_tet_edge_coefficients():
    mesh = build_box_mesh((3, 2, 2), extents=(1.0, 1.3, 0.7))
    u = EdgeField(mesh, np.random.default_rng(8).standard_normal(mesh.num_edges))
    assert np.array_equal(local_coeffs(u), u.coeffs[mesh.tet_edges])
    assert np.array_equal(local_coeffs(u, [3, 1]), u.coeffs[mesh.tet_edges[[3, 1]]])


def test_load_zero_and_constant_oracle():
    mesh = build_box_mesh((2, 1, 1), extents=(2.0, 1.0, 1.0))
    zero = assemble_load(lambda x: np.zeros_like(x), mesh)
    assert np.all(zero == 0.0)
    # constant S: (S, W_e) per tet is S . vol/4 (grad lam_j - grad lam_i)
    S = np.array([0.7, -0.2, 1.5])
    geom = whitney.cell_geometry(mesh)
    oracle = np.zeros(mesh.num_edges)
    for t in range(mesh.num_tets):
        for k, (i, j) in enumerate(LOCAL_EDGES):
            mom = geom.vols[t] / 4.0 * (geom.grads[t, j] - geom.grads[t, i])
            oracle[mesh.tet_edges[t, k]] += S @ mom
    got = assemble_load(lambda x: np.broadcast_to(S, x.shape), mesh)
    assert np.allclose(got, oracle[mesh.free_edges()], atol=1e-14)


def test_load_quadrature_self_convergence():
    # difference between order-2 and order-4 loads shrinks ~O(h^2)
    S = lambda x: np.column_stack([np.sin(1.1 * x[:, 1]),
                                   np.cos(0.9 * x[:, 2]),
                                   np.sin(x[:, 0] + 0.3)])
    # the symmetric 4-point degree-2 tet rule
    a = (5.0 - np.sqrt(5.0)) / 20.0
    rule = whitney.QuadratureRule(
        points=np.where(np.eye(4, dtype=bool), 1.0 - 3.0 * a, a),
        weights=np.full(4, 0.25))
    diffs = []
    for n in (2, 4):
        mesh = build_box_mesh((n, n, n), extents=(1.0, 1.0, 1.0))
        xq = rule.points @ mesh.vertices[mesh.tets]
        order2 = whole_mesh_edge_moments(
            mesh, rule, S(xq.reshape(-1, 3)).reshape(xq.shape))
        d = order2 - assemble_load(S, mesh)
        diffs.append(np.linalg.norm(d, np.inf))
    assert diffs[1] < diffs[0] / 3.0


@pytest.mark.parametrize("block", [1, 100, 8192])
def test_streamed_moments_are_the_whole_mesh_formula_bit_for_bit(
        monkeypatch, block):
    # 12^3 has 10368 tets: at 8192 the last block is a partial one
    mesh = build_box_mesh((12, 12, 12), extents=(PI, PI, PI))
    S = case_general_p(10.0).load
    rule = whitney.TET_RULE
    xq = rule.points @ mesh.vertices[mesh.tets]
    load = whole_mesh_edge_moments(
        mesh, rule, S(xq.reshape(-1, 3)).reshape(xq.shape))
    u = EdgeField(mesh, np.random.default_rng(5).standard_normal(
        mesh.num_edges))
    field_load = whole_mesh_edge_moments(mesh, rule,
                                         rule.points @ vertex_vectors(u))
    monkeypatch.setattr(assembly, "_BLOCK_TETS", block)
    assert assemble_load(S, mesh).tobytes() == load.tobytes()
    got = edge_moments(mesh, lambda tets: field_at(u, tets))
    assert got.tobytes() == field_load.tobytes()


def test_load_traced_peak_stays_below_one_whole_mesh_value_array(monkeypatch):
    # the whole-mesh load made S at every (T, 14, 3) point at once
    mesh = build_box_mesh((16, 16, 16), extents=(PI, PI, PI))
    mesh.geometry
    S = case_general_p(10.0).load
    whole_mesh_values = 8 * mesh.num_tets * whitney.TET_RULE.weights.size * 3
    monkeypatch.setattr(assembly, "_BLOCK_TETS", 1024)
    tracemalloc.start()
    try:
        assemble_load(S, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_mesh_values


def test_lp_norms():
    mesh = build_box_mesh((2, 2, 2))
    assert lp_norm_curl(EdgeField(mesh), 2.0) == 0.0
    assert lp_norm_field(EdgeField(mesh), 3.0) == 0.0
    rng = np.random.default_rng(8)
    u = random_free_field(mesh, rng)
    for p in (2.0, 3.5):
        for c in (2.0, -0.3):
            scaled = EdgeField(mesh, c * u.coeffs)
            assert lp_norm_curl(scaled, p) == pytest.approx(
                abs(c) * lp_norm_curl(u, p), rel=1e-12)
            assert lp_norm_field(scaled, p) == pytest.approx(
                abs(c) * lp_norm_field(u, p), rel=1e-12)


def test_curl_l2_norm_against_analytic_integral():
    # interpolant of (0, 0, sin x sin y) on [0, pi]^3:
    # ||curl u||_L2^2 -> int sin^2 x cos^2 y + cos^2 x sin^2 y = pi^3 / 2
    def field(x):
        out = np.zeros_like(x)
        out[:, 2] = np.sin(x[:, 0]) * np.sin(x[:, 1])
        return out

    vals = []
    for n in (8, 16):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        u = edge_interpolate(field, mesh)
        vals.append(lp_norm_curl(u, 2.0))
    target = np.sqrt(PI**3 / 2.0)
    assert abs(vals[1] - target) < abs(vals[0] - target)
    assert vals[1] == pytest.approx(target, rel=2e-3)


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_discrete_monotonicity(p):
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(int(p))
    pe = PExponent(p, eps=0.0)
    load = np.zeros(mesh.free_edges().size)
    delta = p - 2.0
    a2 = check_ineq2(p, delta).worst_ratio
    for _ in range(50):
        u = random_free_field(mesh, rng)
        v = random_free_field(mesh, rng)
        du = u.coeffs[mesh.free_edges()] - v.coeffs[mesh.free_edges()]
        pairing = (assemble_residual(u.mesh, curl_per_tet(u), load, pe)
                   - assemble_residual(v.mesh, curl_per_tet(v), load, pe)) @ du
        diff = EdgeField(mesh, u.coeffs - v.coeffs)
        lower = lp_norm_curl(diff, p) ** p / a2
        assert pairing > 0.0
        assert pairing >= lower * (1 - 1e-9)


def test_discrete_stability_dual_norm_proxy():
    # ||R(u) - R(v)||_* <= C (||u|| + ||v||)^(p-2) ||u - v|| in the
    # stiffness-inverse dual-norm proxy; the ratio is scale-invariant
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(10)
    p = 4.0
    pe = PExponent(p)
    free = mesh.free_edges()
    load = np.zeros(free.size)
    K = scatter_blocks(mesh, stiffness_blocks(mesh))
    M = edge_mass_matrix(mesh)
    A_prox = (K + M).tocsr()   # SPD proxy for the graph norm pairing

    def dual_norm(r):
        x, rep = cg(A_prox, r, tol=1e-12)
        assert rep.converged
        return np.sqrt(max(r @ x, 0.0))

    def graph_norm(w):
        return lp_norm_field(w, p) + lp_norm_curl(w, p)

    ratios = []
    for _ in range(10):
        u = random_free_field(mesh, rng)
        v = random_free_field(mesh, rng)
        r = (assemble_residual(u.mesh, curl_per_tet(u), load, pe)
             - assemble_residual(v.mesh, curl_per_tet(v), load, pe))
        diff = EdgeField(mesh, u.coeffs - v.coeffs)
        denom = graph_norm(diff) * (graph_norm(u) + graph_norm(v)) ** (p - 2.0)
        ratios.append(dual_norm(r) / denom)
        # homogeneity: scaling u, v by c scales both sides by c^(p-1)
        c = 3.7
        uc = EdgeField(mesh, c * u.coeffs)
        vc = EdgeField(mesh, c * v.coeffs)
        rc = (assemble_residual(uc.mesh, curl_per_tet(uc), load, pe)
              - assemble_residual(vc.mesh, curl_per_tet(vc), load, pe))
        dc = EdgeField(mesh, uc.coeffs - vc.coeffs)
        denc = graph_norm(dc) * (graph_norm(uc) + graph_norm(vc)) ** (p - 2.0)
        assert dual_norm(rc) / denc == pytest.approx(ratios[-1], rel=1e-6)
    assert max(ratios) < 10.0


# -- element-block scatter ----------------------------------------------------

def test_scatter_blocks_matches_dense_oracle():
    mesh = build_box_mesh((2, 2, 2))
    blocks = np.random.default_rng(11).standard_normal((mesh.num_tets, 6, 6))
    free = mesh.free_edges()
    dense = dense_all_edges(mesh, blocks)[np.ix_(free, free)]
    got = scatter_blocks(mesh, blocks)
    assert got.shape == (free.size, free.size)
    assert got.has_sorted_indices
    assert np.abs(got.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()


def test_every_block_matrix_goes_through_scatter_blocks(monkeypatch):
    from pcurlcurl import helmholtz
    calls = []
    scatter = assembly.scatter_blocks

    def counting(mesh, blocks):
        out = scatter(mesh, blocks)
        calls.append(out.shape[0])
        return out

    monkeypatch.setattr(assembly, "scatter_blocks", counting)
    monkeypatch.setattr(helmholtz, "scatter_blocks", counting)
    mesh = build_box_mesh((2, 2, 2))
    u = random_free_field(mesh, np.random.default_rng(12))
    n = mesh.free_edges().size
    g = curl_per_tet(u)
    for build in (lambda: assemble_jacobian(mesh, g, PExponent(2.0)),
                  lambda: assemble_jacobian(mesh, g, PExponent(4.0, eps=0.1)),
                  lambda: edge_mass_matrix(mesh)):
        calls.clear()
        build()
        assert calls == [n]


def test_pattern_is_canonical_and_read_only():
    mesh = build_box_mesh((3, 2, 2))
    pattern = mesh.free_pattern
    n = mesh.free_edges().size
    assert pattern.indptr.shape == (n + 1,)
    assert pattern.slot.shape == (mesh.num_tets * 36,)
    for arr in pattern:
        assert arr.dtype == np.int32
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # every slot is a nonzero or the dump slot of a boundary entry
    nnz = pattern.indices.size
    assert pattern.slot.min() >= 0 and pattern.slot.max() == nnz
    assert np.unique(pattern.slot[pattern.slot < nnz]).size == nnz
    blocks = np.random.default_rng(13).standard_normal((mesh.num_tets, 6, 6))
    got = scatter_blocks(mesh, blocks)
    assert got.has_canonical_format
    for i in range(n):
        row = got.indices[got.indptr[i]:got.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)
    # the canonical flag is true, not just set: scipy's own check agrees
    fresh = got.copy()
    fresh.has_canonical_format = False
    fresh.sum_duplicates()
    assert fresh.nnz == got.nnz
    assert np.array_equal(fresh.indices, got.indices)
    # the matrix is a refill: it shares the pattern and cannot corrupt it
    assert np.shares_memory(got.indices, pattern.indices)
    with pytest.raises(ValueError):
        got.indices[0] = 0


def jacobian_einsum_oracle(u, pe):
    mesh = u.mesh
    geom = mesh.geometry
    D = power_map_derivative(curl_per_tet(u), pe)
    return np.einsum("t,tec,tcd,tfd->tef", geom.vols, geom.curls, D, geom.curls)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 10.0])
def test_jacobian_matches_einsum_and_dense_oracles(p):
    mesh = build_box_mesh((3, 2, 2), extents=(1.0, 1.3, 0.7))
    rng = np.random.default_rng(14)
    free = mesh.free_edges()
    # one circulation: the tets off that edge are exactly curl-free
    one_edge = EdgeField(mesh)
    one_edge.coeffs[free[free.size // 2]] = 1.7
    for u, eps in ((random_free_field(mesh, rng), 0.3),
                   (random_free_field(mesh, rng), 0.0),
                   (one_edge, 0.0), (EdgeField(mesh), 0.0)):
        pe = PExponent(p, eps=eps)
        blocks = jacobian_einsum_oracle(u, pe)
        dense = dense_all_edges(mesh, blocks)[np.ix_(free, free)]
        oracle = scatter_blocks(mesh, blocks).toarray()
        got = assemble_jacobian(u.mesh, curl_per_tet(u), pe).toarray()
        assert np.all(np.isfinite(got))
        scale = max(np.abs(dense).max(), np.finfo(float).tiny)
        assert np.abs(got - dense).max() <= 1e-14 * scale
        assert np.abs(got - oracle).max() <= 1e-14 * scale
        if not u.coeffs.any() and p > 2.0:
            assert not got.any()


def test_unused_options_stay_removed():
    # quadrature rules and orders, Gauss points, Friedrich iteration
    # budgets, potential-check tolerances and smooth-pair coefficients
    # that no caller set are constants, not parameters
    import inspect
    from pcurlcurl.mms import measure_error
    from pcurlcurl.verify import (check_green_formulas, default_smooth_pair,
                                  extract_scalar_potential, friedrich_constant)

    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(lp_norm_field) == ["u", "p"]
    assert names(measure_error) == ["u_h", "case"]
    assert names(edge_interpolate) == ["func", "mesh"]
    assert names(friedrich_constant) == ["meshes", "p"]
    assert names(assemble_load) == ["S", "mesh"]
    assert names(extract_scalar_potential) == ["u"]
    assert names(check_green_formulas) == ["mesh", "pair"]
    assert names(edge_moments) == ["mesh", "values_at"]
    assert names(field_at) == ["u", "tets"]
    assert names(default_smooth_pair) == []
    # one rule per simplex: no order to choose
    import pcurlcurl
    for name in ("quadrature", "triangle_quadrature", "gauss_segment",
                 "quad_points_physical"):
        assert not hasattr(pcurlcurl, name)
        assert not hasattr(whitney, name)
