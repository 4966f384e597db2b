import os
import subprocess
import sys

import numpy as np
import pytest

import pcurlcurl
from pcurlcurl.assembly import (EdgeField, PExponent, assemble_gradient_map,
                                assemble_jacobian, assemble_residual, lp_norm_curl)
from pcurlcurl.helmholtz import edge_mass_matrix
from pcurlcurl.mesh import build_box_mesh
from pcurlcurl.mms import case_general_p, case_p2_sine
from pcurlcurl.solver import (SolveConfig, SolverError, _spanning_tree,
                              default_p_schedule, energy, solve)
from pcurlcurl.assembly import stiffness_matrix

PI = np.pi


def test_default_p_schedule():
    assert default_p_schedule(2.0) == [2.0]
    assert default_p_schedule(4.0) == [2.0, 4.0]
    assert default_p_schedule(10.0) == [2.0, 4.0, 8.0, 10.0]
    assert default_p_schedule(100.0) == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0]


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(p_target=1.5)
    with pytest.raises(ValueError):
        SolveConfig(p_target=4.0, p_schedule=[2.0, 3.0])       # misses target
    with pytest.raises(ValueError):
        SolveConfig(p_target=4.0, p_schedule=[4.0, 2.0, 4.0])  # not sorted
    with pytest.raises(ValueError):
        SolveConfig(p_target=4.0, eps_schedule=[1e-3, 1e-2])   # increasing
    with pytest.raises(ValueError):
        SolveConfig(p_target=4.0, eps_schedule=[])


def test_energy_trivial_and_quadratic():
    mesh = build_box_mesh((2, 2, 2))
    free = mesh.free_edges()
    load = np.zeros(free.size)
    assert energy(EdgeField(mesh), load, PExponent(3.0)) == 0.0
    rng = np.random.default_rng(0)
    u = EdgeField(mesh)
    u.coeffs[free] = rng.standard_normal(free.size)
    load = rng.standard_normal(free.size)
    K = stiffness_matrix(mesh)
    expect = 0.5 * u.coeffs @ (K @ u.coeffs) - load @ u.coeffs[free]
    assert energy(u, load, PExponent(2.0)) == pytest.approx(expect, rel=1e-12)


def test_energy_gradient_is_residual():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(1)
    free = mesh.free_edges()
    pe = PExponent(4.0, eps=0.1)
    load = rng.standard_normal(free.size)
    h = 1e-6
    for _ in range(5):
        u = EdgeField(mesh)
        u.coeffs[free] = rng.standard_normal(free.size)
        v = rng.standard_normal(free.size)
        up = EdgeField(mesh, u.coeffs.copy())
        um = EdgeField(mesh, u.coeffs.copy())
        up.coeffs[free] += h * v
        um.coeffs[free] -= h * v
        fd = (energy(up, load, pe) - energy(um, load, pe)) / (2 * h)
        rv = assemble_residual(u, load, pe) @ v
        assert fd == pytest.approx(rv, rel=1e-6)


def test_p2_converges_in_one_newton_step():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_p2_sine()
    u, mult, rep = solve(mesh, case.load, SolveConfig(p_target=2.0))
    assert len(rep.stages) == 1
    assert rep.stages[0].newton_iterations == 1
    assert rep.final_residual <= 1e-9


def test_zero_load_gives_zero_solution():
    mesh = build_box_mesh((2, 2, 2))
    for p in (2.0, 4.0):
        u, mult, rep = solve(mesh, lambda x: np.zeros_like(x),
                             SolveConfig(p_target=p))
        assert np.all(u.coeffs == 0.0)
        assert np.all(mult.coeffs == 0.0)
        assert rep.total_newton_iterations == 0


def test_descent_constraint_and_multiplier():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    cfg = SolveConfig(p_target=4.0, newton_tol=1e-10)
    u, mult, rep = solve(mesh, case.load, cfg)
    scale = abs(rep.stages[0].energy_history[0]) + 1.0
    for s in rep.stages:
        for a, b in zip(s.energy_history, s.energy_history[1:]):
            assert b <= a + 1e-11 * scale       # monotone up to rounding
        assert max(s.constraint_history) <= 1e-8
    un = np.linalg.norm(u.coeffs)
    assert np.linalg.norm(mult.coeffs) <= 100 * cfg.newton_tol * un
    assert u.boundary_ok(tol=0.0)


def test_solution_satisfies_discrete_weak_form():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    u, mult, rep = solve(mesh, case.load, SolveConfig(p_target=4.0))
    # the reported relative KKT residual is small and the energy at the
    # solution is below the zero-field energy
    assert rep.final_residual <= 1e-9
    pe = PExponent(4.0, eps=rep.stages[-1].eps)
    from pcurlcurl.assembly import assemble_load
    load = assemble_load(case.load, mesh, quad_order=4)
    assert energy(u, load, pe) < 0.0


def test_coercivity_load_scaling():
    # at eps ~ 0 the operator is (p-1)-homogeneous: scaling the load by c
    # scales ||curl u||^(p-1) by c
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    p = 4.0
    vals = []
    for c in (1.0, 2.0, 4.0, 8.0):
        u, _, _ = solve(mesh, lambda x, c=c: c * case.load(x),
                        SolveConfig(p_target=p))
        vals.append(lp_norm_curl(u, p) ** (p - 1.0))
    for c, v in zip((1.0, 2.0, 4.0, 8.0), vals):
        assert v / vals[0] == pytest.approx(c, rel=0.02)


def test_uniqueness_from_different_initial_guesses():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    cfg = SolveConfig(p_target=4.0, p_schedule=[4.0])
    u1, _, _ = solve(mesh, case.load, cfg)
    rng = np.random.default_rng(7)
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    u2, _, _ = solve(mesh, case.load, cfg, initial_guess=guess)
    diff = EdgeField(mesh, u1.coeffs - u2.coeffs)
    assert lp_norm_curl(diff, 4.0) <= 1e-6


def test_edge_field_load_accepted():
    # an EdgeField source acts through its mass pairing
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    from pcurlcurl.assembly import edge_interpolate
    case = case_p2_sine()
    S_h = edge_interpolate(case.load, mesh)
    u, _, rep = solve(mesh, S_h, SolveConfig(p_target=2.0))
    assert rep.final_residual <= 1e-9
    assert lp_norm_curl(u, 2.0) > 0.1


def test_newton_matches_projected_gradient_descent():
    # independent route to the same minimizer: plain projected gradient
    # descent on the energy never touches the Jacobian or the saddle
    # system, yet must land on the same discrete solution
    from pcurlcurl.assembly import assemble_load
    from pcurlcurl.helmholtz import DivFreeProjector
    from pcurlcurl.linalg import cg

    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    proj = DivFreeProjector(mesh)
    free = mesh.free_edges()
    case = case_general_p(4.0)
    load = assemble_load(case.load, mesh, quad_order=4)
    B = proj.GtM[:, free].tocsr()
    phiL, _ = cg(proj.GtMG, proj.G[free].tocsr().T @ load, tol=1e-13)
    load = load - B.T @ phiL
    pe = PExponent(4.0, eps=1e-4)

    u = EdgeField(mesh)
    alpha = 1.0
    J = energy(u, load, pe)
    for _ in range(4000):
        r = assemble_residual(u, load, pe)
        gnorm = np.linalg.norm(r)
        if gnorm < 1e-8:
            break
        while True:
            trial = EdgeField(mesh, u.coeffs.copy())
            trial.coeffs[free] -= alpha * r
            trial, _ = proj.project(trial, tol=1e-12)
            J_try = energy(trial, load, pe)
            if J_try <= J - 1e-4 * alpha * gnorm**2 or alpha < 1e-14:
                break
            alpha *= 0.5
        u, J = trial, J_try
        alpha *= 1.5

    u_newton, _, _ = solve(mesh, case.load,
                           SolveConfig(p_target=4.0, p_schedule=[4.0],
                                       eps_schedule=[1e-4]))
    J_newton = energy(u_newton, load, pe)
    assert J_newton <= J + 1e-10 * (abs(J) + 1.0)
    diff = EdgeField(mesh, u.coeffs - u_newton.coeffs)
    assert lp_norm_curl(diff, 4.0) <= 1e-4 * lp_norm_curl(u_newton, 4.0)


def test_incompatible_load_is_projected_and_reported():
    # a load with a gradient component cannot be balanced by the curl
    # term; the solver discards that part (reporting its norm) and the
    # multiplier still vanishes
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))

    def S(x):
        clean = np.column_stack([np.sin(x[:, 1]), np.sin(x[:, 2]),
                                 np.sin(x[:, 0])])
        grad = np.column_stack([2 * x[:, 0], 2 * x[:, 1],
                                np.zeros(len(x))])
        return clean + grad

    u, mult, rep = solve(mesh, S, SolveConfig(p_target=4.0))
    assert rep.load_gradient_norm > 0.1
    assert rep.final_residual <= 1e-9
    assert np.abs(mult.coeffs).max() <= 1e-10


def test_large_p_continuation_with_defaults():
    # engineering exponents: the eps floor keeps the Jacobi-preconditioned
    # cotree solves inside float64 territory
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(50.0)
    u, _, rep = solve(mesh, case.load, SolveConfig(p_target=50.0))
    assert rep.final_residual <= 1e-8
    assert lp_norm_curl(u, 50.0) > 0.1
    # the ladder was floored: no stage ran at an eps the weights of
    # which would span more than the configured decade budget
    for s in rep.stages:
        if s.p > 2.0:
            assert s.eps > 0.0


def test_anisotropic_box_solve():
    mesh = build_box_mesh((4, 3, 5), origin=(-1.0, 2.0, 0.5),
                          extents=(2.0, 1.5, 3.0))

    def S(x):
        return np.column_stack([np.sin(x[:, 1]) * np.cos(x[:, 2]),
                                np.sin(x[:, 2]) * np.cos(x[:, 0]),
                                np.sin(x[:, 0]) * np.cos(x[:, 1])])

    u, mult, rep = solve(mesh, S, SolveConfig(p_target=4.0))
    assert rep.final_residual <= 1e-9
    assert max(max(s.constraint_history) for s in rep.stages) <= 1e-8
    assert u.boundary_ok(tol=0.0)


def test_newton_budget_exhaustion_raises():
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    case = case_general_p(6.0)
    cfg = SolveConfig(p_target=6.0, p_schedule=[6.0], max_newton=1,
                      eps_schedule=[1e-4])
    with pytest.raises(SolverError):
        solve(mesh, case.load, cfg)


@pytest.mark.parametrize("divisions", [(1, 1, 1), (2, 2, 2), (3, 3, 3),
                                       (4, 3, 5), (6, 6, 6)])
def test_spanning_tree_one_edge_per_interior_vertex(divisions):
    mesh = build_box_mesh(divisions)
    interior = mesh.interior_vertices()
    free = mesh.free_edges()
    tree = _spanning_tree(mesh)
    assert tree.size == interior.size
    assert np.all(np.diff(tree) > 0)
    assert np.all((tree >= 0) & (tree < free.size))
    # nint edges joining nint + 1 nodes (boundary merged into one ground
    # node) span them iff they connect every interior vertex to ground
    node = np.full(mesh.num_vertices, interior.size)
    node[interior] = np.arange(interior.size)
    root = list(range(interior.size + 1))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in node[mesh.edges[free[tree]]]:
        ra, rb = find(a), find(b)
        assert ra != rb                        # no cycle
        root[ra] = rb
    assert len({find(a) for a in range(interior.size + 1)}) == 1


def reference_ground_tree(mesh):
    """The solver's gauge tree by a plain queue BFS, one level at a time.

    Boundary vertices merge into one ground node, the root. Each level
    scans its nodes in ascending order and each node's arcs in free-edge
    order, those where it is the lo end first; a node's tree edge is the
    first arc that reaches it.
    """
    free = mesh.free_edges()
    interior = mesh.interior_vertices()
    ground = interior.size
    node = np.full(mesh.num_vertices, ground)
    node[interior] = np.arange(ground)
    ends = node[mesh.edges[free]]
    arcs = [[] for _ in range(ground + 1)]
    for k, (a, b) in enumerate(ends):
        arcs[a].append((b, k))
    for k, (a, b) in enumerate(ends):
        arcs[b].append((a, k))
    seen = {ground}
    tree = []
    level = [ground]
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
    assert np.array_equal(_spanning_tree(mesh), reference_ground_tree(mesh))


def test_tree_gauge_removes_exactly_the_gradient_kernel():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    free = mesh.free_edges()
    tree = _spanning_tree(mesh)
    cotree = np.setdiff1d(np.arange(free.size), tree)
    A = assemble_jacobian(EdgeField(mesh), PExponent(2.0)).toarray()
    G = assemble_gradient_map(mesh)[free].toarray()
    # gradients of interior potentials are determined by their tree entries
    assert np.linalg.matrix_rank(G[tree]) == tree.size
    evals = np.linalg.eigvalsh(A)
    assert np.sum(evals <= 1e-10 * evals.max()) == tree.size
    np.linalg.cholesky(A[np.ix_(cotree, cotree)])    # SPD on the cotree


def test_p10_counters_pinned():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    u, mult, rep = solve(mesh, case_general_p(10.0).load,
                         SolveConfig(p_target=10.0))
    assert len(rep.stages) == 8
    assert rep.total_newton_iterations == 32
    assert rep.final_residual <= 1e-9
    assert max(max(s.constraint_history) for s in rep.stages) <= 1e-8


def test_one_cell_geometry_per_mesh(monkeypatch, tmp_path):
    from pcurlcurl import whitney
    from pcurlcurl.io import write_vtk
    from pcurlcurl.mms import measure_error
    calls = []
    real = whitney.cell_geometry

    def counting(mesh):
        calls.append(mesh)
        return real(mesh)

    monkeypatch.setattr(whitney, "cell_geometry", counting)
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    u, _, _ = solve(mesh, case.load, SolveConfig(p_target=4.0))
    measure_error(u, case)
    write_vtk(str(tmp_path / "u.vtk"), mesh, u)
    lp_norm_curl(u, 4.0)
    assert len(calls) == 1


def test_solve_leaves_scipy_sparse_linalg_unimported():
    # scipy.sparse.linalg (also pulled in by scipy.sparse.csgraph) adds
    # ~11 MiB of resident memory to every process that imports it
    src = os.path.dirname(os.path.dirname(pcurlcurl.__file__))
    code = ("import sys, numpy as np, pcurlcurl as pc\n"
            "m = pc.build_box_mesh((2, 2, 2), extents=(np.pi,) * 3)\n"
            "pc.solve(m, pc.case_general_p(4.0).load, pc.SolveConfig(p_target=4.0))\n"
            "print(' '.join(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded = set(out.split())
    assert "pcurlcurl.solver" in loaded
    assert "scipy.sparse.linalg" not in loaded
    assert "scipy.sparse.csgraph" not in loaded
