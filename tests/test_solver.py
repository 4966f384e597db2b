import dataclasses
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import pcurlcurl
from pcurlcurl import solver
from pcurlcurl.assembly import (EdgeField, PExponent, assemble_gradient_map,
                                assemble_jacobian, assemble_load,
                                assemble_residual, curl_per_tet, lp_norm_curl)
from pcurlcurl.helmholtz import DivFreeProjector
from pcurlcurl.linalg import cg
from pcurlcurl.mesh import build_box_mesh
from pcurlcurl.mms import case_general_p, case_p2_sine
from pcurlcurl.solver import (SolveConfig, SolverError, default_p_schedule,
                              energy, solve)
from pcurlcurl.assembly import scatter_blocks, stiffness_blocks

PI = np.pi


def answer_constraint(u):
    """||G^T M u|| / ||u||_M, recomputed from the returned field."""
    proj = DivFreeProjector(u.mesh)
    uf = u.coeffs[u.mesh.free_edges()]
    return proj.constraint_norm(u.coeffs) / np.sqrt(uf @ (proj.M @ uf))


def test_default_p_schedule():
    assert default_p_schedule(2.0) == [2.0]
    assert default_p_schedule(4.0) == [2.0, 4.0]
    assert default_p_schedule(10.0) == [2.0, 4.0, 8.0, 10.0]
    assert default_p_schedule(100.0) == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0]


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(p_target=1.5)
    # NaN used to pass as the p = 2 solve, and inf built 1024 stages
    for p in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="must be finite"):
            SolveConfig(p_target=p)
        with pytest.raises(ValueError, match="must be finite"):
            default_p_schedule(p)


def test_p_target_is_the_only_solve_knob():
    assert [f.name for f in dataclasses.fields(SolveConfig)] == ["p_target"]
    with pytest.raises(TypeError):
        SolveConfig(newton_tol=1e-10)
    cfg = SolveConfig()
    assert cfg.newton_tol == SolveConfig.newton_tol == solver.NEWTON_TOL
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.newton_tol = 1e-10


def test_energy_trivial_and_quadratic():
    mesh = build_box_mesh((2, 2, 2))
    free = mesh.free_edges()
    load = np.zeros(free.size)
    assert energy(EdgeField(mesh), load, PExponent(3.0)) == 0.0
    rng = np.random.default_rng(0)
    u = EdgeField(mesh)
    u.coeffs[free] = rng.standard_normal(free.size)
    load = rng.standard_normal(free.size)
    K = scatter_blocks(mesh, stiffness_blocks(mesh))
    uf = u.coeffs[free]
    expect = 0.5 * uf @ (K @ uf) - load @ uf
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
        rv = assemble_residual(u.mesh, curl_per_tet(u), load, pe) @ v
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
    u, mult, rep = solve(mesh, case.load, SolveConfig(p_target=4.0))
    scale = abs(rep.stages[0].energy_history[0]) + 1.0
    for s in rep.stages:
        for a, b in zip(s.energy_history, s.energy_history[1:]):
            assert b <= a + 1e-11 * scale       # monotone up to rounding
    assert rep.constraint <= 1e-8
    assert answer_constraint(u) <= 1e-8
    un = np.linalg.norm(u.coeffs)
    assert np.linalg.norm(mult.coeffs) <= 1e-8 * un
    assert not u.coeffs[mesh.boundary_edges].any()


def test_solution_satisfies_discrete_weak_form():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    u, mult, rep = solve(mesh, case.load, SolveConfig(p_target=4.0))
    # the reported relative KKT residual is small and the energy at the
    # solution is below the zero-field energy
    assert rep.final_residual <= 1e-9
    pe = PExponent(4.0, eps=rep.stages[-1].eps)
    from pcurlcurl.assembly import assemble_load
    load = assemble_load(case.load, mesh)
    assert energy(u, load, pe) < 0.0


def test_coercivity_load_scaling():
    # eps scales with the answer, so the regularized problem keeps the
    # (p-1)-homogeneity of the operator exactly: u(cS) = c^(1/(p-1)) u(S),
    # with the same Newton work, over 60 decades of load
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    for p in (3.0, 10.0):
        case = case_general_p(p)
        u1, _, rep1 = solve(mesh, case.load, SolveConfig(p_target=p))
        ref = lp_norm_curl(u1, p)
        for c in (1e-30, 1e-8, 1e-3, 1e3, 1e12, 1e30):
            u, _, rep = solve(mesh, lambda x, c=c: c * case.load(x),
                              SolveConfig(p_target=p))
            back = EdgeField(mesh, u.coeffs / c**(1.0 / (p - 1.0)) - u1.coeffs)
            assert lp_norm_curl(back, p) <= 1e-12 * ref
            assert [s.newton_iterations for s in rep.stages] == \
                [s.newton_iterations for s in rep1.stages]


def test_box_dilation_keeps_newton_counts_and_scales_curl():
    # on lam [0, pi]^3 with load S(x / lam) the answer is
    # lam^(p/(p-1)) u(x / lam), so each tet's curl scales by lam^(1/(p-1));
    # the line-search floor is relative to J, whose size goes as
    # lam^(3 + p/(p-1)), so Newton takes the same steps at every lam
    p = 10.0
    S = case_general_p(p).load
    ref = None
    for lam in (1.0, 1e-6, 1e-3, 1e3):
        mesh = build_box_mesh((4, 4, 4), extents=(lam * PI,) * 3)
        u, _, rep = solve(mesh, lambda x, lam=lam: S(x / lam),
                          SolveConfig(p_target=p))
        assert [s.newton_iterations for s in rep.stages] == [1, 7, 7, 6]
        curl = curl_per_tet(u)
        if ref is None:
            ref = curl
        scale = lam**(1.0 / (p - 1.0))
        assert np.abs(curl - scale * ref).max() <= 1e-12 * scale * np.abs(ref).max()


@pytest.mark.parametrize("p, counts", [(4.0, [1, 6]), (10.0, [1, 7, 7, 6])])
def test_axis_permutation_maps_each_tet_curl(p, counts):
    # the Kuhn mesh maps onto itself under each axis permutation Q, and
    # with the load S'(x) = Q S(Q^T x) the curl on a tet is
    # det(Q) Q curl u at the mapped tet; Newton takes the same steps
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    S = case_general_p(p).load
    u, _, rep = solve(mesh, S, SolveConfig(p_target=p))
    assert [s.newton_iterations for s in rep.stages] == counts
    ref = curl_per_tet(u)
    centroids = mesh.vertices[mesh.tets].mean(axis=1)

    def keys(x):        # centroids are multiples of h / 4 = pi / 16
        k = np.rint(x / (PI / 16)).astype(np.int64)
        return (k[:, 0] * 64 + k[:, 1]) * 64 + k[:, 2]

    order = np.argsort(keys(centroids))
    for perm in itertools.permutations(range(3)):
        Q = np.eye(3)[list(perm)]
        u_q, _, rep_q = solve(mesh, lambda x, Q=Q: S(x @ Q) @ Q.T,
                              SolveConfig(p_target=p))
        assert [s.newton_iterations for s in rep_q.stages] == counts
        mapped = keys(centroids @ Q)
        match = order[np.searchsorted(keys(centroids)[order], mapped)]
        assert np.array_equal(keys(centroids)[match], mapped)
        expect = np.linalg.det(Q) * ref[match] @ Q.T
        assert np.abs(curl_per_tet(u_q) - expect).max() <= 1e-13 * np.abs(ref).max()


def test_uniqueness_from_different_initial_guesses():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    cfg = SolveConfig(p_target=4.0)
    u1, _, _ = solve(mesh, case.load, cfg)
    rng = np.random.default_rng(7)
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    u2, _, _ = solve(mesh, case.load, cfg, initial_guess=guess)
    diff = EdgeField(mesh, u1.coeffs - u2.coeffs)
    assert lp_norm_curl(diff, 4.0) <= 1e-6


def test_edge_field_load_fails_loudly():
    # a load is a callable or a load vector; an EdgeField is neither,
    # and numpy refuses it as a vector
    from pcurlcurl.assembly import edge_interpolate
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    with pytest.raises(TypeError):
        solve(mesh, edge_interpolate(case_p2_sine().load, mesh),
              SolveConfig(p_target=2.0))


@pytest.mark.parametrize("p", [2.0, 10.0])
def test_load_vector_matches_the_callable_load(p):
    # the assembled vector over the free edges is the second load form;
    # it takes the callable's path from the strip onward, bit for bit
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    case = case_general_p(p)
    cfg = SolveConfig(p_target=p)
    u1, m1, rep1 = solve(mesh, case.load, cfg)
    load = assemble_load(case.load, mesh)
    u2, m2, rep2 = solve(mesh, load, cfg)
    assert np.array_equal(u1.coeffs, u2.coeffs)
    assert np.array_equal(m1.coeffs, m2.coeffs)
    assert rep1.load_gradient_norm == rep2.load_gradient_norm
    assert ([(s.p, s.eps, s.newton_iterations, s.linear_iterations,
              s.final_residual) for s in rep1.stages]
            == [(s.p, s.eps, s.newton_iterations, s.linear_iterations,
                 s.final_residual) for s in rep2.stages])
    # a list of the same numbers is the same load
    u3, _, _ = solve(mesh, list(load), cfg)
    assert np.array_equal(u1.coeffs, u3.coeffs)


def test_bad_load_vectors_are_rejected():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    load = assemble_load(case_p2_sine().load, mesh)
    cfg = SolveConfig(p_target=2.0)
    for bad in (load[:-1], np.append(load, 0.0), np.zeros(mesh.num_edges),
                load[None, :], np.float64(1.0)):
        with pytest.raises(ValueError, match="load vector must be"):
            solve(mesh, bad, cfg)
    for value in (np.nan, np.inf, -np.inf):
        bad = load.copy()
        bad[3] = value
        with pytest.raises(ValueError, match="finite floats"):
            solve(mesh, bad, cfg)


def test_newton_matches_projected_gradient_descent():
    # independent route to the same minimizer: plain projected gradient
    # descent on the energy never touches the Jacobian or the saddle
    # system, yet must land on the same discrete solution
    from pcurlcurl.assembly import assemble_load
    from pcurlcurl.helmholtz import DivFreeProjector

    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    proj = DivFreeProjector(mesh)
    free = mesh.free_edges()
    case = case_general_p(4.0)
    load, _ = proj.strip_gradient(assemble_load(case.load, mesh))
    u_newton, _, rep = solve(mesh, case.load, SolveConfig(p_target=4.0))
    pe = PExponent(4.0, eps=rep.stages[-1].eps)

    u = EdgeField(mesh)
    alpha = 1.0
    J = energy(u, load, pe)
    for _ in range(4000):
        r = assemble_residual(u.mesh, curl_per_tet(u), load, pe)
        gnorm = np.linalg.norm(r)
        if gnorm < 1e-8:
            break
        while True:
            trial = EdgeField(mesh, u.coeffs.copy())
            trial.coeffs[free] -= alpha * r
            trial, _ = proj.project(trial)
            J_try = energy(trial, load, pe)
            if J_try <= J - 1e-4 * alpha * gnorm**2 or alpha < 1e-14:
                break
            alpha *= 0.5
        u, J = trial, J_try
        alpha *= 1.5

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
    # engineering exponents: the eps rule keeps the Jacobi-preconditioned
    # Newton CG solves inside float64 territory
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(50.0)
    u, _, rep = solve(mesh, case.load, SolveConfig(p_target=50.0))
    assert rep.final_residual <= 1e-8
    assert lp_norm_curl(u, 50.0) > 0.1
    # no stage past p = 2 ran unregularized
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
    assert rep.constraint <= 1e-8
    assert answer_constraint(u) <= 1e-8
    assert not u.coeffs[mesh.boundary_edges].any()


def test_newton_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    case = case_general_p(6.0)
    with pytest.raises(SolverError, match="p=4.0"):
        solve(mesh, case.load, SolveConfig(p_target=6.0))


def test_stage_converging_on_its_last_allowed_step_succeeds(monkeypatch):
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    _, _, rep = solve(mesh, case_p2_sine().load, SolveConfig())
    assert rep.stages[0].newton_iterations == 1
    assert rep.final_residual <= 1e-9


def test_consistent_rhs_removes_exactly_the_gradient_kernel():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    free = mesh.free_edges()
    proj = DivFreeProjector(mesh)
    Gfree = proj.G
    A = assemble_jacobian(mesh, curl_per_tet(EdgeField(mesh)), PExponent(2.0))
    dense = A.toarray()
    # the p = 2 Jacobian is singular, and its kernel is exactly the
    # gradients of interior potentials
    evals = np.linalg.eigvalsh(dense)
    nint = mesh.interior_vertices().size
    assert np.sum(evals <= 1e-10 * evals.max()) == nint
    assert np.linalg.norm(dense @ Gfree.toarray()) <= 1e-12 * evals.max()

    Q, _ = np.linalg.qr(Gfree.toarray())               # basis of range(G_free)
    b = np.random.default_rng(3).standard_normal(free.size)
    assert np.linalg.norm(Q.T @ b) >= 0.1 * np.linalg.norm(b)
    bc, _ = proj.strip_gradient(b)
    assert np.linalg.norm(Q.T @ bc) <= 1e-13 * np.linalg.norm(bc)

    tol = solver.LINEAR_TOL
    maxit = 20 * free.size
    du, rep = cg(A, bc, tol=tol, max_iter=maxit, diag=A.diagonal())
    assert rep.converged
    # the step differs from the pseudo-inverse step only by a gradient
    ref = np.linalg.pinv(dense) @ bc

    def curl(x):
        u = EdgeField(mesh)
        u.coeffs[free] = x
        return curl_per_tet(u)

    scale = np.abs(curl(ref)).max()
    assert np.abs(curl(du) - curl(ref)).max() <= 1e-10 * scale
    # without the projection the same CG cannot converge: A x never
    # reaches the gradient part of b
    _, rep = cg(A, b, tol=tol, max_iter=maxit, diag=A.diagonal())
    assert not rep.converged


@pytest.mark.parametrize("p", [4.0, 10.0])
def test_gradient_shift_invariance(p):
    # u -> u + G phi changes neither the energy, nor the residual, nor the
    # answer and the work of a solve started there
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    case = case_general_p(p)
    u_ref, _, rep_ref = solve(mesh, case.load, SolveConfig(p_target=p))
    phi = np.random.default_rng(11).standard_normal(
        mesh.interior_vertices().size)
    shift = assemble_gradient_map(mesh) @ phi
    assert np.abs(shift).max() > 0.1
    u_shift = EdgeField(mesh, u_ref.coeffs + shift)

    proj = DivFreeProjector(mesh)
    load, _ = proj.strip_gradient(assemble_load(case.load, mesh))
    pe = PExponent(p, eps=rep_ref.stages[-1].eps)
    r0 = assemble_residual(u_ref.mesh, curl_per_tet(u_ref), load, pe)
    r1 = assemble_residual(u_shift.mesh, curl_per_tet(u_shift), load, pe)
    assert np.linalg.norm(r1 - r0) <= 1e-12 * np.linalg.norm(load)
    J0, J1 = energy(u_ref, load, pe), energy(u_shift, load, pe)
    assert abs(J1 - J0) <= 1e-12 * abs(J0)

    cfg = SolveConfig(p_target=p)
    u_a, _, rep_a = solve(mesh, case.load, cfg, initial_guess=u_ref)
    u_b, _, rep_b = solve(mesh, case.load, cfg, initial_guess=u_shift)
    assert len(rep_b.stages) == len(rep_a.stages)
    assert rep_b.total_newton_iterations == rep_a.total_newton_iterations
    ref_norm = lp_norm_curl(u_ref, p)
    for u in (u_a, u_b):
        assert lp_norm_curl(EdgeField(mesh, u.coeffs - u_ref.coeffs), p) \
            <= 1e-10 * ref_norm
    # the gradient the start carried is gone from the answer
    assert rep_b.constraint <= 1e-8
    assert answer_constraint(u_b) <= 1e-8


def test_linear_iterations_recorded_per_stage(monkeypatch):
    from pcurlcurl import solver
    newton_cg = []
    real = solver.cg

    def counting(A, b, **kw):
        x, rep = real(A, b, **kw)
        if kw.get("diag") is not None:            # Newton steps only
            newton_cg.append(rep.iterations)
        return x, rep

    monkeypatch.setattr(solver, "cg", counting)
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    _, _, rep = solve(mesh, case_general_p(4.0).load, SolveConfig(p_target=4.0))
    assert len(newton_cg) == rep.total_newton_iterations
    assert rep.total_linear_iterations == sum(newton_cg)
    steps = np.cumsum([0] + [s.newton_iterations for s in rep.stages])
    for s, a, b in zip(rep.stages, steps, steps[1:]):
        assert s.linear_iterations == sum(newton_cg[a:b])


def test_one_gradient_solve_per_newton_step(monkeypatch):
    # G^T M G solves: the load, each step's right-hand side, the answer
    # and the multiplier; Newton never projects an iterate
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    nodal = []
    real = DivFreeProjector._potential

    def counting(self, rhs):
        nodal.append(rhs.size)
        return real(self, rhs)

    monkeypatch.setattr(DivFreeProjector, "_potential", counting)
    rng = np.random.default_rng(5)
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    _, _, rep = solve(mesh, case_general_p(4.0).load,
                      SolveConfig(p_target=4.0), initial_guess=guess)
    assert rep.total_newton_iterations > 0
    nint = mesh.interior_vertices().size
    assert nodal == [nint] * (rep.total_newton_iterations + 3)


def test_solver_runs_no_nodal_solve_of_its_own(monkeypatch):
    # every G^T M G solve belongs to DivFreeProjector; the solver's own CG
    # sees only the free-edge Jacobian
    from pcurlcurl import solver
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    nint = mesh.interior_vertices().size
    shapes = []
    real = solver.cg

    def recording(A, b, **kw):
        shapes.append(A.shape)
        return real(A, b, **kw)

    monkeypatch.setattr(solver, "cg", recording)
    rng = np.random.default_rng(5)
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    _, _, rep = solve(mesh, case_general_p(4.0).load,
                      SolveConfig(p_target=4.0), initial_guess=guess)
    assert len(shapes) == rep.total_newton_iterations > 0
    nfree = mesh.free_edges().size
    assert all(s == (nfree, nfree) for s in shapes)
    assert (nint, nint) not in shapes


def test_final_residual_is_relative_to_the_load():
    # from a random start the first residual is far above the load; the
    # stage must still stop only once ||r|| / ||load|| <= newton_tol
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    case = case_general_p(2.0)
    cfg = SolveConfig(p_target=2.0)
    rng = np.random.default_rng([101, 1])
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    u, _, rep = solve(mesh, case.load, cfg, initial_guess=guess)
    load, _ = DivFreeProjector(mesh).strip_gradient(
        assemble_load(case.load, mesh))
    r = assemble_residual(mesh, curl_per_tet(u), load,
                          PExponent(2.0, eps=rep.stages[-1].eps))
    assert np.linalg.norm(r) <= solver.NEWTON_TOL * np.linalg.norm(load)


def test_p10_counters_pinned():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    u, mult, rep = solve(mesh, case_general_p(10.0).load,
                         SolveConfig(p_target=10.0))
    assert len(rep.stages) == 4
    assert rep.total_newton_iterations == 21
    assert rep.final_residual <= 1e-9
    assert rep.constraint <= 1e-8
    assert answer_constraint(u) <= 1e-8


def test_p10_zero_start_counters_at_6_cubed():
    # the zero start of the solve-p10 benchmark, by machine-independent
    # counters per level: the full ramp on 3^3, then p = 2 and p = 10 on
    # 6^3 from the prolongated 3^3 answer
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    _, _, rep = solve(mesh, case_general_p(10.0).load,
                      SolveConfig(p_target=10.0))
    coarse = [s for s in rep.stages if s.divisions == (3, 3, 3)]
    fine = [s for s in rep.stages if s.divisions == (6, 6, 6)]
    assert rep.stages == coarse + fine
    assert [s.p for s in coarse] == [2.0, 4.0, 8.0, 10.0]
    assert sum(s.newton_iterations for s in coarse) == 21
    assert [s.p for s in fine] == [2.0, 10.0]
    assert sum(s.newton_iterations for s in fine) == 9
    fine_cg = sum(s.linear_iterations for s in fine)
    assert abs(fine_cg - 627) <= 0.01 * 627
    assert rep.total_newton_iterations == 30
    assert rep.constraint <= 1e-12


def test_p2_stage_takes_one_full_step_from_random_starts():
    # the p = 2 energy is quadratic, so the full Newton step is its exact
    # line minimizer, and a random start takes one step, undamped
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    load = case_general_p(2.0).load
    for k in range(1, 5):
        rng = np.random.default_rng([12001, k])
        guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
        _, _, rep = solve(mesh, load, SolveConfig(p_target=2.0),
                          initial_guess=guess)
        assert [s.newton_iterations for s in rep.stages] == [1]


def test_long_box_solves_at_p10():
    # on a (1, 1, 5) box the first step of the nested p = 10 stage is
    # ~1e10 times longer than the iterate, beyond 30 halvings from t = 1;
    # the first trial, bounded by max|curl u| / max|curl du|, reaches it
    mesh = build_box_mesh((6, 6, 6), extents=(1.0, 1.0, 5.0))
    _, _, rep = solve(mesh, case_general_p(10.0).load,
                      SolveConfig(p_target=10.0))
    assert rep.final_residual <= solver.NEWTON_TOL
    assert [s.divisions for s in rep.stages][-2:] == [(6, 6, 6)] * 2
    assert rep.total_newton_iterations == 37
    assert rep.constraint <= 1e-12


def test_long_box_solves_at_p10_on_12_cubed():
    # the same box one level finer: three nested levels, each reached
    mesh = build_box_mesh((12, 12, 12), extents=(1.0, 1.0, 5.0))
    _, _, rep = solve(mesh, case_general_p(10.0).load,
                      SolveConfig(p_target=10.0))
    assert rep.final_residual <= solver.NEWTON_TOL
    assert [s.divisions for s in rep.stages][-2:] == [(12, 12, 12)] * 2
    assert rep.total_newton_iterations == 61
    assert rep.constraint <= 1e-12


@pytest.mark.parametrize("n, p, nested", [(6, 10.0, True), (3, 10.0, False),
                                          (4, 100.0, False), (6, 4.0, False)])
def test_only_the_nested_stage_takes_inexact_steps(monkeypatch, n, p, nested):
    # an energy-norm forcing term reaches Newton's CG only in the p_target
    # stage that starts from the prolongated coarse answer; the p = 2
    # stages, the coarsest ramp and one-level solves run exact CG
    etas = []
    real = solver.cg

    def recording(A, b, **kw):
        etas.append(kw.get("energy_tol"))
        return real(A, b, **kw)

    monkeypatch.setattr(solver, "cg", recording)
    mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
    _, _, rep = solve(mesh, case_general_p(p).load, SolveConfig(p_target=p))
    assert len(etas) == rep.total_newton_iterations
    k = rep.total_newton_iterations - rep.stages[-1].newton_iterations
    assert all(eta is None for eta in etas[:k])
    assert rep.stages[-1].divisions == (n, n, n)
    assert (rep.stages[0].divisions != (n, n, n)) == nested
    if nested:
        assert etas[k] == solver.FORCING_MAX
        assert all(0 < eta <= solver.FORCING_MAX
                   for eta in etas[k:] if eta is not None)
    else:
        assert all(eta is None for eta in etas[k:])


def test_answer_does_not_depend_on_the_p_schedule(monkeypatch):
    # eps_p comes from the p = 2 answer alone, so every ramp to p = 10
    # solves the same regularized problem; one level, so that the whole
    # ramp runs on 6^3
    from pcurlcurl import mesh as mesh_module
    from pcurlcurl import solver
    monkeypatch.setattr(mesh_module, "COARSEST_DIVISIONS", 7)
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    assert mesh.coarse is None
    load = case_general_p(10.0).load
    u_ref, _, rep_ref = solve(mesh, load, SolveConfig(p_target=10.0))
    ref = lp_norm_curl(u_ref, 10.0)
    for sched in ([2.0, 4.0, 10.0], [2.0, 5.0, 10.0]):
        monkeypatch.setattr(solver, "default_p_schedule",
                            lambda p_target, sched=sched: sched)
        u, _, rep = solve(mesh, load, SolveConfig(p_target=10.0))
        assert rep.stages[-1].eps == rep_ref.stages[-1].eps
        diff = EdgeField(mesh, u.coeffs - u_ref.coeffs)
        assert lp_norm_curl(diff, 10.0) <= 1e-7 * ref


@pytest.mark.parametrize("n", [6, 8])
def test_nested_answer_matches_the_one_level_solve(monkeypatch, n):
    # each level sets its own eps from its own p = 2 answer, so the fine
    # level solves the problem a one-level solve does, at the same eps
    from pcurlcurl import mesh as mesh_module
    load = case_general_p(10.0).load
    cfg = SolveConfig(p_target=10.0)
    nested = build_box_mesh((n, n, n), extents=(PI, PI, PI))
    u_nested, _, rep_nested = solve(nested, load, cfg)
    assert nested.coarse is not None
    monkeypatch.setattr(mesh_module, "COARSEST_DIVISIONS", n)
    one = build_box_mesh((n, n, n), extents=(PI, PI, PI))
    u_one, _, rep_one = solve(one, load, cfg)
    assert one.coarse is None
    assert {s.divisions for s in rep_one.stages} == {(n, n, n)}
    assert rep_nested.stages[-1].eps == rep_one.stages[-1].eps
    diff = EdgeField(one, u_nested.coeffs - u_one.coeffs)
    assert lp_norm_curl(diff, 10.0) <= 1e-6        # criterion 7's bound


def test_coarse_levels_start_from_zero():
    # the caller's start seeds only the fine p = 2 stage
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    load = case_general_p(10.0).load
    cfg = SolveConfig(p_target=10.0)
    u_ref, _, rep_ref = solve(mesh, load, cfg)
    rng = np.random.default_rng([101, 1])
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    u, _, rep = solve(mesh, load, cfg, initial_guess=guess)
    ncoarse = sum(s.divisions == (3, 3, 3) for s in rep.stages)
    assert ncoarse == 4
    for a, b in zip(rep.stages[:ncoarse], rep_ref.stages[:ncoarse]):
        assert a == b
    diff = EdgeField(mesh, u.coeffs - u_ref.coeffs)
    assert lp_norm_curl(diff, 10.0) <= 1e-6


def test_p4_and_odd_meshes_solve_on_one_level():
    # up to p = 4 the ramp has one stage past p = 2, as short as nesting
    # would make it, so these solves never build the coarse mesh
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    for p in (2.0, 3.0, 4.0):
        _, _, rep = solve(mesh, case_general_p(p).load,
                          SolveConfig(p_target=p))
        assert {s.divisions for s in rep.stages} == {(6, 6, 6)}
    assert "coarse" not in vars(mesh)
    mesh = build_box_mesh((6, 6, 5), extents=(PI, PI, PI))
    _, _, rep = solve(mesh, case_general_p(4.0).load,
                      SolveConfig(p_target=4.0))
    assert [s.divisions for s in rep.stages] == [(6, 6, 5)] * 2


def test_nested_p100_at_6_cubed(monkeypatch):
    # the fine mesh goes from the prolongated 3^3 answer to p = 100 in
    # one stage, well inside the Newton budget, and reaches the energy of
    # the one-level ramp; the curls themselves are not compared, since at
    # p = 100 the residual stop leaves them loose (two one-level ramps
    # differ by ~20% of the largest curl at equal energy)
    from pcurlcurl import mesh as mesh_module
    case = case_general_p(100.0)
    cfg = SolveConfig(p_target=100.0)
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    u_nested, _, rep = solve(mesh, case.load, cfg)
    fine = [s for s in rep.stages if s.divisions == (6, 6, 6)]
    assert [s.p for s in fine] == [2.0, 100.0]
    assert [s.newton_iterations for s in fine] == [1, 25]
    assert len(rep.stages) == 9
    assert rep.final_residual <= 1e-9
    monkeypatch.setattr(mesh_module, "COARSEST_DIVISIONS", 7)
    one = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    u_one, _, rep_one = solve(one, case.load, cfg)
    assert len(rep_one.stages) == 7
    assert rep.stages[-1].eps == rep_one.stages[-1].eps
    load, _ = DivFreeProjector(one).strip_gradient(
        assemble_load(case.load, one))
    pexp = PExponent(100.0, eps=rep_one.stages[-1].eps)
    j_one = solver.energy(u_one, load, pexp)
    j_nested = solver.energy(EdgeField(one, u_nested.coeffs), load, pexp)
    assert abs(j_nested - j_one) <= 1e-11 * abs(j_one)


def test_p100_stages_and_newton_budget():
    # each stage starts at the energy minimizer on the ray of the last
    # answer, which keeps the large-p ramp short
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    _, _, rep = solve(mesh, case_general_p(100.0).load,
                      SolveConfig(p_target=100.0))
    assert len(rep.stages) == 7
    assert rep.total_newton_iterations <= 40
    assert rep.final_residual <= 1e-9


def test_one_csr_pattern_of_each_kind_per_mesh(monkeypatch):
    # every edge matrix is free x free: one pattern build per mesh, shared
    # by the solve, a second projector and the Friedrich eigensolve
    from pcurlcurl import mesh as mesh_module
    from pcurlcurl.verify import friedrich_constant
    calls = []
    real = mesh_module._csr_pattern

    def counting(mesh):
        calls.append(mesh)
        return real(mesh)

    monkeypatch.setattr(mesh_module, "_csr_pattern", counting)
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    solve(mesh, case_general_p(4.0).load, SolveConfig(p_target=4.0))
    DivFreeProjector(mesh)
    friedrich_constant([mesh], 2.0)
    assert calls == [mesh]


def test_one_projector_build_per_mesh(monkeypatch):
    # the nested solve builds the operators of 6^3 and 3^3 once; a second
    # solve, a second projector and the Friedrich eigensolve reuse them
    from pcurlcurl import helmholtz
    from pcurlcurl.verify import friedrich_constant
    calls = []
    real = helmholtz.edge_mass_matrix

    def counting(mesh):
        calls.append(mesh.divisions)
        return real(mesh)

    monkeypatch.setattr(helmholtz, "edge_mass_matrix", counting)
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    load = case_general_p(10.0).load
    u1, _, rep = solve(mesh, load, SolveConfig(p_target=10.0))
    assert {s.divisions for s in rep.stages} == {(3, 3, 3), (6, 6, 6)}
    assert sorted(calls) == [(3, 3, 3), (6, 6, 6)]
    u2, _, _ = solve(mesh, load, SolveConfig(p_target=10.0))
    DivFreeProjector(mesh)
    friedrich_constant([mesh], 2.0)
    assert len(calls) == 2
    assert np.array_equal(u1.coeffs, u2.coeffs)


def test_one_stiffness_build_per_mesh(monkeypatch):
    # the p = 2 stages of a nested solve build the stiffness of 6^3 and
    # 3^3 once; a second solve and the Friedrich eigensolve reuse it
    from pcurlcurl import assembly
    from pcurlcurl.verify import friedrich_constant
    calls = []

    def counting(mesh):
        calls.append(mesh.divisions)
        return stiffness_blocks(mesh)

    monkeypatch.setattr(assembly, "stiffness_blocks", counting)
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    load = case_general_p(10.0).load
    solve(mesh, load, SolveConfig(p_target=10.0))
    assert sorted(calls) == [(3, 3, 3), (6, 6, 6)]
    solve(mesh, load, SolveConfig(p_target=10.0))
    friedrich_constant([mesh], 2.0)
    assert len(calls) == 2
    K = mesh.stiffness
    zero_curls = curl_per_tet(EdgeField(mesh))
    assert assemble_jacobian(mesh, zero_curls, PExponent(2.0)) is K
    assert np.all(K.data != 0.0)
    assert K.nnz < mesh.free_pattern.indices.size
    for arr in (K.data, K.indices, K.indptr):
        assert not arr.flags.writeable
    full = scatter_blocks(mesh, stiffness_blocks(mesh))
    assert np.array_equal(K.toarray(), full.toarray())


def test_newton_gathers_the_curls_of_each_iterate_once(monkeypatch):
    # the residual and the Jacobian take the curls the line search
    # accepted, so a Newton step gathers only du's; each stage adds at
    # most three (its start and the two ray factors of its eps and start)
    from pcurlcurl import assembly
    calls = []
    tet_curls = assembly.tet_curls

    def counting(local, curls):
        calls.append(local.shape[0])
        return tet_curls(local, curls)

    monkeypatch.setattr(assembly, "tet_curls", counting)
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    _, _, rep = solve(mesh, case_general_p(10.0).load,
                      SolveConfig(p_target=10.0))
    assert len(calls) <= rep.total_newton_iterations + 3 * len(rep.stages)


def test_fields_of_another_mesh_are_rejected():
    # a start on another mesh, even one of the same grid, is an error,
    # not a solve on the start's mesh
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    load = case_p2_sine().load
    for other in (build_box_mesh((3, 3, 3), extents=(2 * PI,) * 3),
                  build_box_mesh((2, 2, 2), extents=(PI, PI, PI))):
        with pytest.raises(ValueError, match="another mesh"):
            solve(mesh, load, SolveConfig(p_target=2.0),
                  initial_guess=EdgeField(other))
        with pytest.raises(ValueError, match="another mesh"):
            DivFreeProjector(mesh).project(EdgeField(other))


def test_load_of_another_mesh_is_rejected():
    # a load made on another mesh, even one of the same grid, is an
    # error, not a solve: its vector has the wrong length, and an
    # EdgeField is no load form at all
    from pcurlcurl.assembly import edge_interpolate
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    load = case_p2_sine().load
    cfg = SolveConfig(p_target=2.0)
    for other in (build_box_mesh((3, 3, 3), extents=(2 * PI,) * 3),
                  build_box_mesh((2, 2, 2), extents=(PI, PI, PI))):
        with pytest.raises(TypeError):
            solve(mesh, edge_interpolate(load, other), cfg)
    with pytest.raises(ValueError, match="load vector must be"):
        solve(mesh, assemble_load(load, build_box_mesh(
            (2, 2, 2), extents=(PI, PI, PI))), cfg)


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
    # ~11 MiB of resident memory to every process that imports it; nor
    # do the Friedrich eigensolve and the inequality sweep import it, and
    # the sweep's 60-digit oracle (mpmath, shipped with sympy) stays in
    # the tests. The potential's sine transform is three numpy matmuls,
    # not scipy.fft
    src = os.path.dirname(os.path.dirname(pcurlcurl.__file__))
    code = ("import sys, numpy as np, pcurlcurl as pc\n"
            "m = pc.build_box_mesh((2, 2, 2), extents=(np.pi,) * 3)\n"
            "pc.solve(m, pc.case_general_p(4.0).load, pc.SolveConfig(p_target=4.0))\n"
            "pc.friedrich_constant([m], 4.0)\n"
            "pc.check_inequalities([2.0, 3.0])\n"
            "print(' '.join(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded = set(out.split())
    assert "pcurlcurl.solver" in loaded
    assert "scipy.sparse.linalg" not in loaded
    assert "scipy.sparse.csgraph" not in loaded
    assert "scipy.fft" not in loaded
    assert "mpmath" not in loaded and "sympy" not in loaded


def test_random_start_p2_takes_one_newton_step():
    # the start's residual is ~200 times the load; Newton's CG tolerance
    # is tightened by that ratio, so the one p = 2 step reaches newton_tol
    mesh = build_box_mesh((6, 6, 6), extents=(PI, PI, PI))
    rng = np.random.default_rng([101, 1])
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    _, _, rep = solve(mesh, case_general_p(2.0).load,
                      SolveConfig(p_target=2.0), initial_guess=guess)
    assert rep.total_newton_iterations == 1
    assert rep.final_residual <= 1e-9
