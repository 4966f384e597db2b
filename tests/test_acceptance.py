"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Tolerances are fixed here, not calibrated at runtime.
"""

import numpy as np
import pytest

from pcurlcurl.assembly import (EdgeField, PExponent, assemble_gradient_map,
                                assemble_jacobian, assemble_residual,
                                curl_per_tet, lp_norm_curl)
from pcurlcurl.helmholtz import DivFreeProjector
from pcurlcurl.mesh import build_box_mesh
from pcurlcurl.mms import case_general_p, case_p2_sine, measure_error
from pcurlcurl.solver import SolveConfig, solve
from pcurlcurl.verify import (check_green_formulas, check_ineq1, check_ineq2,
                              default_smooth_pair, extract_scalar_potential,
                              friedrich_constant)

PI = np.pi


def report(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_vector_inequalities():
    worst = {}
    for p in (2.0, 3.0, 4.0, 6.0, 10.0):
        r1 = check_ineq1(p, 0.0)
        r2 = check_ineq2(p, 0.0)
        assert r1.violations == 0 and r2.violations == 0
        worst[p] = (r1.worst_ratio, r2.worst_ratio)
    a1, a2 = worst[2.0]
    ok = abs(a1 - 1.0) <= 1e-12 and abs(a2 - 1.0) <= 1e-12
    report(ok, "criterion 1: power-map inequality envelopes "
               f"(p=2 gives a1={a1:.15f}, a2={a2:.15f}; zero violations "
               f"in the computed suprema for p in 2,3,4,6,10)")


def test_criterion_2_discrete_monotonicity():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    free = mesh.free_edges()
    load = np.zeros(free.size)
    rng = np.random.default_rng(7)
    n_pairs = 1000
    for p in (2.0, 4.0, 6.0):
        pe = PExponent(p, eps=0.0)
        a2 = check_ineq2(p, p - 2.0).worst_ratio
        margin = []
        for _ in range(n_pairs):
            u = EdgeField(mesh)
            v = EdgeField(mesh)
            u.coeffs[free] = rng.standard_normal(free.size)
            v.coeffs[free] = rng.standard_normal(free.size)
            du = u.coeffs[free] - v.coeffs[free]
            pairing = (assemble_residual(u.mesh, curl_per_tet(u), load, pe)
                       - assemble_residual(v.mesh, curl_per_tet(v), load, pe)) @ du
            diff = EdgeField(mesh, u.coeffs - v.coeffs)
            lower = lp_norm_curl(diff, p) ** p / a2
            assert pairing > 0.0
            assert pairing >= lower * (1 - 1e-9)
            margin.append(pairing / lower)
        report(True, f"criterion 2: monotonicity pairing positive and >= "
                     f"a2^-1 ||curl(u-v)||_p^p for p={p:g} over {n_pairs} "
                     f"pairs (min margin {min(margin):.3f})")


def test_criterion_3_jacobian_residual_consistency():
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    free = mesh.free_edges()
    pe = PExponent(4.0, eps=0.1)
    load = np.zeros(free.size)
    rng = np.random.default_rng(17)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        u = EdgeField(mesh)
        u.coeffs[free] = rng.standard_normal(free.size)
        d = rng.standard_normal(free.size)
        J = assemble_jacobian(u.mesh, curl_per_tet(u), pe)
        up = EdgeField(mesh, u.coeffs.copy())
        um = EdgeField(mesh, u.coeffs.copy())
        up.coeffs[free] += h * d
        um.coeffs[free] -= h * d
        fd = (assemble_residual(up.mesh, curl_per_tet(up), load, pe)
              - assemble_residual(um.mesh, curl_per_tet(um), load, pe)) / (2 * h)
        rel = np.linalg.norm(fd - J @ d) / np.linalg.norm(J @ d)
        worst = max(worst, rel)
    report(worst <= 1e-6, "criterion 3: FD directional derivatives match the "
                          f"Jacobian (100 pairs, worst relative {worst:.2e})")


def test_criterion_4_helmholtz_decomposition():
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    proj = DivFreeProjector(mesh)
    free = mesh.free_edges()
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = EdgeField(mesh, rng.standard_normal(mesh.num_edges)).zero_boundary()
        u0, phi = proj.project(u)
        again, phi2 = proj.project(u0)
        scale = np.linalg.norm(u0.coeffs)
        assert np.linalg.norm(again.coeffs - u0.coeffs) <= 1e-10 * scale
        assert np.linalg.norm(phi2.coeffs) <= 1e-10 * scale
        g = proj.G @ phi.coeffs[mesh.interior_vertices()]
        uf, u0f = u.coeffs[free], u0.coeffs[free]
        total = uf @ (proj.M @ uf)
        split = u0f @ (proj.M @ u0f) + g @ (proj.M @ g)
        assert abs(total - split) <= 1e-10 * total
    G = assemble_gradient_map(mesh)
    psi = rng.standard_normal(G.shape[1])
    grad = EdgeField(mesh, G @ psi)
    rem, _ = proj.project(grad)
    ok = np.linalg.norm(rem.coeffs) <= 1e-9 * np.linalg.norm(grad.coeffs)
    report(ok, "criterion 4: Helmholtz projection idempotent (1e-10), "
               "M-orthogonal split (1e-10), gradients annihilated")


def test_criterion_5_friedrich_constant():
    meshes = [build_box_mesh((n, n, n), extents=(PI, PI, PI))
              for n in (2, 4, 8)]
    rep = friedrich_constant(meshes, 2.0)
    target = 1.0 / np.sqrt(2.0)
    rel = abs(rep.extrapolated - target) / target
    m1 = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    m2 = build_box_mesh((3, 3, 3), extents=(2 * PI, 2 * PI, 2 * PI))
    ratio = (friedrich_constant([m2], 2.0).constants[0]
             / friedrich_constant([m1], 2.0).constants[0])
    ok = rel <= 0.05 and abs(ratio / 2.0 - 1.0) <= 0.01
    report(ok, f"criterion 5: Friedrich constant extrapolates to {rep.extrapolated:.6f} "
               f"(target 0.707107, rel err {rel:.2e}); dilation ratio {ratio:.6f}")


def test_criterion_6_p2_manufactured_convergence():
    case = case_p2_sine()
    errs = []
    newtons = []
    for n in (2, 4, 8):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        u, _, rep = solve(mesh, case.load, SolveConfig(p_target=2.0))
        newtons.append(rep.stages[0].newton_iterations)
        errs.append(measure_error(u, case)[1])
    hs = np.array([PI / n for n in (2, 4, 8)])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = all(k == 1 for k in newtons) and slope >= 0.85
    report(ok, f"criterion 6: p=2 solve in 1 Newton step per level; "
               f"curl-L2 errors {['%.3f' % e for e in errs]} slope {slope:.3f}")


def test_criterion_7_uniqueness_two_guesses():
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    case = case_general_p(4.0)
    cfg = SolveConfig(p_target=4.0)
    u1, _, _ = solve(mesh, case.load, cfg)
    rng = np.random.default_rng(41)
    guess = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    u2, _, _ = solve(mesh, case.load, cfg, initial_guess=guess)
    diff = lp_norm_curl(EdgeField(mesh, u1.coeffs - u2.coeffs), 4.0)
    report(diff <= 1e-6, "criterion 7: p=4 solves from zero and random "
                         f"guesses agree (curl-L4 difference {diff:.2e})")


def test_criterion_8_p10_continuation():
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    case = case_general_p(10.0)
    u, _, rep = solve(mesh, case.load, SolveConfig(p_target=10.0))
    scale = abs(rep.stages[0].energy_history[0]) + 1.0
    monotone = all(
        b <= a + 1e-11 * scale
        for s in rep.stages
        for a, b in zip(s.energy_history, s.energy_history[1:]))
    ok = rep.final_residual <= 1e-8 and monotone
    report(ok, f"criterion 8: p=10 continuation reaches relative KKT "
               f"{rep.final_residual:.2e} with monotone energy "
               f"({len(rep.stages)} stages, {rep.total_newton_iterations} Newton steps)")


def test_criterion_9_green_formulas():
    pair = default_smooth_pair()
    residuals = []
    for n in (2, 4, 8):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        residuals.append(check_green_formulas(mesh, pair))
    ok = True
    for (d0, c0), (d1, c1) in zip(residuals, residuals[1:]):
        ok = ok and d1 <= d0 / 4.0 and c1 <= c0 / 4.0
    ok = ok and residuals[-1][0] <= 1e-6 and residuals[-1][1] <= 1e-6
    report(ok, "criterion 9: Green identity residuals decrease >= 4x per "
               f"level, level 3 at div {residuals[-1][0]:.2e} / "
               f"curl {residuals[-1][1]:.2e}")


def test_criterion_10_scalar_potential_roundtrip():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(53)
    G = assemble_gradient_map(mesh)
    worst = 0.0
    worst_mean = 0.0
    for _ in range(25):
        psi = rng.standard_normal(G.shape[1])
        u = EdgeField(mesh, G @ psi)
        phi = extract_scalar_potential(u)
        diffs = phi.coeffs[mesh.edges[:, 1]] - phi.coeffs[mesh.edges[:, 0]]
        worst = max(worst, np.abs(diffs - u.coeffs).max())
        worst_mean = max(worst_mean,
                         abs(phi.coeffs.mean()) / np.abs(phi.coeffs).max())
    ok = worst <= 1e-12 and worst_mean <= 1e-14
    report(ok, f"criterion 10: potential round-trip max error {worst:.2e}, "
               f"mean-zero normalization within {worst_mean:.2e}")
