"""Damped Newton in a tree-cotree gauge, with p/eps continuation.

The discrete problem at each continuation stage: find u with

    (power(curl u), curl v) = (S, v)   for all free-edge v,
    (u, G psi)_M = 0                   for all interior psi.

The energy

    J(u) = (1/p) int (eps^2 + |curl u|^2)^(p/2) - (S, u)

and its gradient, the residual, cannot see gradients G phi once the load
is Helmholtz-projected (its discarded gradient part is reported), so the
divergence constraint only picks one representative of each curl. Newton
therefore works in a gauge: a spanning tree of the interior vertices,
with the boundary merged into one ground node, has one edge per interior
vertex, and fixing the step to zero on those edges removes exactly the
gradients. On the remaining cotree edges the Jacobian is SPD for eps > 0
and each step is one Jacobi-preconditioned CG solve. The step differs
from the constrained Newton step only by a gradient, so a plain
backtracking line search on J guarantees descent, and every accepted
iterate is Helmholtz-projected to restore the constraint.

Large p is reached by geometric continuation in p, and within each p
stage the regularization eps is driven down a fixed schedule; the
reported answer is the one at the smallest eps. The nodal multiplier is
recovered once at the end from the gradient part of the final residual;
it vanishes for compatible loads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (EdgeField, NodalField, PExponent, assemble_jacobian,
                       assemble_load, assemble_residual, curl_per_tet)
from .helmholtz import DivFreeProjector
from .linalg import cg
from .mesh import Mesh


class SolverError(RuntimeError):
    """Line search or linear solver failure inside a Newton stage."""


def default_p_schedule(p_target):
    """Geometric ramp 2, 4, 8, ... capped at p_target."""
    if p_target < 2.0:
        raise ValueError("p_target must be >= 2")
    sched = [2.0]
    while sched[-1] < p_target:
        sched.append(min(2.0 * sched[-1], float(p_target)))
    return sched


def default_eps_schedule():
    """Relative regularization levels 1e-2 down to 1e-8, factor 10."""
    return [10.0**(-k) for k in range(2, 9)]


@dataclass
class SolveConfig:
    p_target: float = 2.0
    p_schedule: list = None          # exponent ramp; default geometric from 2
    eps_schedule: list = None        # relative to a curl-scale estimate
    newton_tol: float = 1e-9
    max_newton: int = 50
    ls_backtrack: float = 0.5
    ls_max: int = 30
    linear_tol: float = 1e-11
    linear_maxit: int = None
    quad_order: int = 4              # for analytic load assembly
    # Floor on the eps ladder: at exponent p every relative eps is raised to
    # at least 10^(-eps_spread_decades/(p-2)), so (gmax/eps)^(p-2) <= 10^12,
    # gmax being the largest curl of the previous stage. That is not the
    # spread of the weights (eps^2 + |curl u|^2)^((p-2)/2) within a stage,
    # which is ((eps^2 + gmax^2)/eps^2)^((p-2)/2): 10^21.6 at p = 100 with
    # the floored eps = 0.754 gmax. Nor does the floor spare moderate p: at
    # p = 10 it is 10^-1.5, which collapses the ladder 1e-2 .. 1e-8 to one
    # stage at eps ~ 0.03 gmax.
    eps_spread_decades: float = 12.0

    def __post_init__(self):
        if self.p_target < 2.0:
            raise ValueError(f"p_target must be >= 2, got {self.p_target}")
        if self.p_schedule is None:
            self.p_schedule = default_p_schedule(self.p_target)
        self.p_schedule = [float(p) for p in self.p_schedule]
        if self.p_schedule != sorted(self.p_schedule) or \
                self.p_schedule[-1] != self.p_target or \
                any(p < 2.0 for p in self.p_schedule):
            raise ValueError("p_schedule must be nondecreasing, >= 2, "
                             "ending at p_target")
        if self.eps_schedule is None:
            self.eps_schedule = default_eps_schedule()
        self.eps_schedule = [float(e) for e in self.eps_schedule]
        if not self.eps_schedule or \
                any(b >= a for a, b in zip(self.eps_schedule, self.eps_schedule[1:])) or \
                any(e <= 0 for e in self.eps_schedule):
            raise ValueError("eps_schedule must be positive and strictly decreasing")


@dataclass
class StageRecord:
    p: float
    eps: float
    newton_iterations: int
    final_residual: float            # relative KKT residual (r, G^T M u)
    energy_history: list = field(default_factory=list)
    constraint_history: list = field(default_factory=list)


@dataclass
class SolveReport:
    stages: list = field(default_factory=list)
    load_gradient_norm: float = 0.0  # discarded incompatible load part
    wall_time: float = 0.0

    @property
    def final_residual(self):
        return self.stages[-1].final_residual if self.stages else 0.0

    @property
    def total_newton_iterations(self):
        return sum(s.newton_iterations for s in self.stages)


def energy(u: EdgeField, load, p: PExponent):
    """J(u) = (1/p) int (eps^2 + |curl u|^2)^(p/2) - load . u_free.

    Uses the same regularized integrand as the residual, so its Gateaux
    derivative is exactly assemble_residual.
    """
    bulk, pairing = _energy_terms(u, load, p)
    return float(bulk - pairing)


def _energy_terms(u, load, p):
    """The two terms of the energy: the bulk integral and the load pairing."""
    g = curl_per_tet(u)
    msq = p.eps**2 + np.sum(g * g, axis=1)
    bulk = np.sum(u.mesh.geometry.vols * np.power(msq, 0.5 * p.p)) / p.p
    return bulk, load @ u.coeffs[u.mesh.free_edges()]


def solve(mesh: Mesh, S, config: SolveConfig = None, initial_guess=None):
    """Solve the discrete power-law curl-curl problem.

    Args:
        S: analytic load callable (N,3)->(N,3), or an EdgeField whose
           mass pairing supplies the load functional.
        initial_guess: optional EdgeField; it is boundary-zeroed and
           Helmholtz-projected before use. Default: zero field.

    Returns:
        (u, multiplier, SolveReport). u satisfies the boundary invariant
        and the divergence constraint up to the linear tolerance; the
        multiplier is ~0 for divergence-free loads.
    """
    t0 = time.perf_counter()
    if config is None:
        config = SolveConfig()
    proj = DivFreeProjector(mesh)
    free = mesh.free_edges()
    nint = mesh.interior_vertices().size

    if isinstance(S, EdgeField):
        load = (proj.M @ S.coeffs)[free]
    else:
        load = assemble_load(S, mesh, quad_order=config.quad_order)

    # Remove the load component that pairs with gradients: it cannot be
    # balanced by the curl term, and without it the energy is invariant
    # under u -> u + G phi, which is what makes the tree gauge exact.
    B = proj.GtM[:, free].tocsr()                       # (nint, nfree)
    Gfree = proj.G[free].tocsr()                        # (nfree, nint)
    report = SolveReport()
    if nint > 0:
        phi_load, cg_rep = cg(proj.GtMG, Gfree.T @ load, tol=1e-13)
        if not cg_rep.converged:
            raise SolverError("load projection CG failed")
        grad_part = B.T @ phi_load
        report.load_gradient_norm = float(np.linalg.norm(grad_part))
        load = load - grad_part

    if initial_guess is None:
        u = EdgeField(mesh)
    else:
        u0, _ = proj.project(initial_guess.zero_boundary(), tol=config.linear_tol)
        u = u0

    cotree = np.setdiff1d(np.arange(free.size), _spanning_tree(mesh))
    load_scale = float(np.linalg.norm(load))
    curl_scale = 1.0

    for p_val in config.p_schedule:
        if p_val == 2.0:
            eps_list = [0.0]     # the power map ignores eps at p = 2
        else:
            floor = 10.0 ** (-config.eps_spread_decades / (p_val - 2.0))
            floored = [max(e, floor) for e in config.eps_schedule]
            dedup = []
            for e in floored:
                if not dedup or e < dedup[-1]:
                    dedup.append(e)
            eps_list = [rel * curl_scale for rel in dedup]
        for eps in eps_list:
            pexp = PExponent(p=p_val, eps=eps)
            u, r1, rec = _newton_stage(proj, B, free, cotree, u, load,
                                       load_scale, pexp, config)
            report.stages.append(rec)
        # Scale subsequent regularizations by the current solution size.
        g = curl_per_tet(u)
        mx = float(np.max(np.linalg.norm(g, axis=1))) if g.size else 0.0
        if mx > 0:
            curl_scale = mx

    # The multiplier balances the gradient part of the final residual:
    # B^T phi = -r1 tested against gradients gives G^T M G phi = -G^T r1.
    phi, cg_rep = cg(proj.GtMG, -(Gfree.T @ r1), tol=config.linear_tol)
    if not cg_rep.converged:
        raise SolverError("multiplier CG failed")
    multiplier = np.zeros(mesh.num_vertices)
    multiplier[mesh.interior_vertices()] = phi
    report.wall_time = time.perf_counter() - t0
    return u, NodalField(mesh, multiplier), report


def _spanning_tree(mesh: Mesh):
    """Free-edge positions of a BFS spanning tree of the interior vertices.

    All boundary vertices are merged into one ground node, the root, so
    the tree has exactly one edge per interior vertex: the edge through
    which the search first reached it. A gradient of interior potentials
    is determined by its tree entries, so zeroing them fixes the gauge.
    Deterministic for a fixed mesh.
    """
    free = mesh.free_edges()
    interior = mesh.interior_vertices()
    ground = interior.size
    node = np.full(mesh.num_vertices, ground)
    node[interior] = np.arange(ground)
    on_tree = np.zeros(free.size, dtype=bool)
    for via, _, _ in mesh.bfs_tree(node, free, ground):
        on_tree[via] = True
    return np.flatnonzero(on_tree)


def _newton_stage(proj, B, free, cotree, u, load, load_scale, pexp, config):
    """Run damped Newton at fixed (p, eps); returns (u, residual, record)."""
    mesh = u.mesh
    maxit = config.linear_maxit or 20 * cotree.size

    def kkt(u_field):
        r1 = assemble_residual(u_field, load, pexp)
        r2 = B @ u_field.coeffs[free]
        return r1, r2

    r1, r2 = kkt(u)
    res0 = float(np.sqrt(r1 @ r1 + r2 @ r2))
    denom = max(load_scale, res0, np.finfo(float).tiny)
    rec = StageRecord(p=pexp.p, eps=pexp.eps, newton_iterations=0,
                      final_residual=res0 / denom)
    rec.energy_history.append(energy(u, load, pexp))
    rec.constraint_history.append(_constraint_measure(proj, u))

    for it in range(1, config.max_newton + 1):
        if np.sqrt(r1 @ r1 + r2 @ r2) <= config.newton_tol * denom:
            break
        A = assemble_jacobian(u, pexp)[cotree][:, cotree]
        diag = A.diagonal()
        if not np.all(diag > 0):
            raise SolverError(
                f"cotree Jacobian lost definiteness at p={pexp.p}, "
                f"eps={pexp.eps:.2e}: smallest diagonal entry {diag.min():.3e}")
        step, lin = cg(A, -r1[cotree], tol=config.linear_tol, max_iter=maxit,
                       diag=diag)
        # An inexact step still makes Newton progress as long as it
        # carries real information (forcing-term argument); the line
        # search and the Newton budget catch anything worse.
        if not lin.converged and lin.relative_residual > 0.5:
            raise SolverError(
                f"cotree CG stalled at p={pexp.p}, eps={pexp.eps:.2e}: "
                f"relative residual {lin.relative_residual:.3e}")
        du = np.zeros(free.size)
        du[cotree] = step

        J0 = rec.energy_history[-1]
        slope = float(r1 @ du)       # directional derivative of J
        # Near the minimum the true decrease ~|r|^2 drops below float64
        # rounding of J itself; the floor keeps Armijo from rejecting
        # full Newton steps it cannot measure.
        bulk, pairing = _energy_terms(u, load, pexp)
        J_floor = 64.0 * np.finfo(float).eps * (bulk + abs(pairing) + 1.0)
        t = 1.0
        accepted = False
        for _ in range(config.ls_max + 1):
            trial = u.coeffs.copy()
            trial[free] += t * du
            u_try = EdgeField(mesh, trial)
            # At large p a long trial step can overflow J to inf, which
            # rejects it like any other increase.
            with np.errstate(over="ignore"):
                J_try = energy(u_try, load, pexp)
            if J_try <= J0 + 1e-4 * t * min(slope, 0.0) + J_floor:
                accepted = True
                break
            t *= config.ls_backtrack
        if not accepted:
            raise SolverError(
                f"line search failed at p={pexp.p}, eps={pexp.eps:.2e}, "
                f"Newton iteration {it} (energy cannot decrease)")

        # The gauged step carries a gradient; projecting it out changes
        # neither J nor the residual and restores G^T M u = 0.
        u, _ = proj.project(u_try, tol=config.linear_tol)
        r1, r2 = kkt(u)
        rec.newton_iterations = it
        rec.energy_history.append(J_try)
        rec.constraint_history.append(_constraint_measure(proj, u))
    else:
        res = float(np.sqrt(r1 @ r1 + r2 @ r2))
        raise SolverError(
            f"Newton did not converge at p={pexp.p}, eps={pexp.eps:.2e}: "
            f"relative residual {res / denom:.3e} after {config.max_newton} steps")

    rec.final_residual = float(np.sqrt(r1 @ r1 + r2 @ r2)) / denom
    return u, r1, rec


def _constraint_measure(proj, u):
    """||G^T M u|| / ||u||_M, the relative divergence violation."""
    un = float(np.sqrt(u.coeffs @ (proj.M @ u.coeffs)))
    if un == 0.0:
        return 0.0
    return proj.constraint_norm(u.coeffs) / un
