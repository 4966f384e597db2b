"""Ungauged damped Newton on a consistent right-hand side, with
continuation in p.

The discrete problem at each continuation stage: find u with

    (power(curl u), curl v) = (S, v)   for all free-edge v,
    (u, G psi)_M = 0                   for all interior psi.

The energy

    J(u) = (1/p) int (eps^2 + |curl u|^2)^(p/2) - (S, u)

and its gradient, the residual, cannot see gradients G phi once the load
is Helmholtz-projected (its discarded gradient part is reported), so the
divergence constraint only picks one representative of each curl. The
Jacobian on the free edges is therefore singular, with exactly the
gradients as its kernel, and Newton needs no gauge: before each step the
right-hand side -r loses its gradient part through the same
`DivFreeProjector.strip_gradient` that cleans the load, and
Jacobi-preconditioned CG then converges on the consistent singular
system. The step differs from the constrained Newton step only by a
gradient, so a plain backtracking line search on J guarantees descent.
Newton never projects its iterates: the constraint is imposed once, by
`DivFreeProjector.project` on the answer. Every G^T M G solve belongs to
the projector, which solves directly; this module runs only the Newton
CG on the Jacobian, to LINEAR_TOL.

Large p is reached by geometric continuation in p after a p = 2 stage
from the given start. Each later stage solves at one eps, set from the
p = 2 answer alone, so the discrete problem depends only on (mesh, S,
p), and starts from the previous answer scaled to the energy minimizer
on its ray. Kuhn meshes are nested, so past p = 4 a mesh with a coarse
mesh (`Mesh.coarse`) solves there first, from zero, recursively; its
answer, moved onto the fine mesh exactly by `Mesh.prolongation`, starts
the one p stage that runs on the fine mesh after the fine p = 2 stage
(nested iteration; Bank & Rose, Math. Comp. 39, 1982). The full p ramp
runs only on the coarsest level. Every Newton CG runs to LINEAR_TOL on
its residual, except in that one nested stage: there the first step and
each step after a full step may stop early on CG's own estimate of its
energy-norm error, to the forcing term min(FORCING_MAX, ||r|| / ||load||)
(inexact affine-conjugate Newton; Deuflhard, 2004, sec. 2.3). Its start
is already close, so the inexact steps keep the exact steps' Newton
count; the ramp and the p = 2 stages, which start far off, stay exact,
because there loose steps cost more Newton steps than they save in CG.
The nodal multiplier is recovered once at the end from the gradient
part of the final residual. It is the multiplier of the load-projected
problem, so it is zero up to rounding for every load, compatible or
not: the discarded gradient part of the load is reported instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .assembly import (EdgeField, PExponent, assemble_jacobian,
                       assemble_load, assemble_residual, curl_per_tet)
from .helmholtz import DivFreeProjector
from .linalg import SolverError, cg
from .mesh import Mesh


def default_p_schedule(p_target):
    """Geometric ramp 2, 4, 8, ... capped at p_target."""
    PExponent(p_target)             # ValueError unless 2 <= p_target < inf
    sched = [2.0]
    while sched[-1] < p_target:
        sched.append(min(2.0 * sched[-1], float(p_target)))
    return sched


NEWTON_TOL = 1e-9         # stop a stage at ||r|| / ||load|| <= NEWTON_TOL
MAX_NEWTON = 50           # Newton steps per stage before SolverError
LINEAR_TOL = 1e-11        # Newton CG relative tolerance
FORCING_MAX = 1e-2        # largest energy-norm forcing term of an inexact step
LS_BACKTRACK = 0.5        # line-search step reduction per rejected trial
LS_MAX = 30               # rejected trials before the line search fails

# At exponent p, eps is at least 10^(-EPS_SPREAD_DECADES/(p-2)) times the
# largest curl of the p = 2 shape, so (max|curl|/eps)^(p-2) <= 10^12 there.
EPS_SPREAD_DECADES = 12.0


@dataclass(frozen=True)
class SolveConfig:
    """The one solve knob: the target exponent. Every other policy is a
    module constant; `newton_tol` is a read-only view of NEWTON_TOL."""
    p_target: float = 2.0
    newton_tol: ClassVar[float] = NEWTON_TOL

    def __post_init__(self):
        PExponent(self.p_target)    # ValueError unless 2 <= p_target < inf


@dataclass
class StageRecord:
    p: float
    eps: float
    newton_iterations: int
    final_residual: float            # ||r|| / ||load|| at the end
    linear_iterations: int = 0       # Newton CG iterations of the stage
    divisions: tuple = None          # the mesh's grid; None for a raw Mesh
    energy_history: list = field(default_factory=list)


@dataclass
class SolveReport:
    stages: list = field(default_factory=list)
    load_gradient_norm: float = 0.0  # discarded incompatible load part
    constraint: float = 0.0          # ||G^T M u|| / ||u||_M of the answer
    wall_time: float = 0.0

    @property
    def final_residual(self):
        return self.stages[-1].final_residual if self.stages else 0.0

    @property
    def total_newton_iterations(self):
        return sum(s.newton_iterations for s in self.stages)

    @property
    def total_linear_iterations(self):
        return sum(s.linear_iterations for s in self.stages)


def energy(u: EdgeField, load, p: PExponent):
    """J(u) = (1/p) int (eps^2 + |curl u|^2)^(p/2) - load . u_free.

    Uses the same regularized integrand as the residual, so its Gateaux
    derivative is exactly assemble_residual.
    """
    bulk, _ = _bulk_energy(curl_per_tet(u), u.mesh.geometry.vols, p)
    return float(bulk - load @ u.coeffs[u.mesh.free_edges()])


def _bulk_energy(g, vols, p):
    """(1/p) int (eps^2 + |g|^2)^(p/2) and |g|^2 for the per-tet curls g."""
    gsq = np.einsum("tc,tc->t", g, g)      # twice as fast as a row sum
    return np.sum(vols * p.weight(gsq) * (p.eps**2 + gsq)) / p.p, gsq


def solve(mesh: Mesh, S, config: SolveConfig = None, initial_guess=None):
    """Solve the discrete power-law curl-curl problem.

    Args:
        S: analytic load callable (N,3)->(N,3), or the load vector
           itself, finite floats over `mesh.free_edges()`, as
           `assemble_load` returns it.
        initial_guess: optional EdgeField; it is boundary-zeroed before
           use, and the p = 2 stage on `mesh` starts from it. Coarse
           levels start from zero. Its gradient part does not matter:
           the answer is Helmholtz-projected. Default: zero field.

    Returns:
        (u, multiplier, SolveReport). u satisfies the boundary invariant
        and the divergence constraint up to rounding.
        The multiplier belongs to the load-projected problem, so it is
        zero up to rounding even for incompatible loads, whose gradient
        part is reported as `SolveReport.load_gradient_norm`. The report's
        `stages` lists every level's stages, coarsest first, each with
        its mesh's `divisions`, and its totals sum all levels.

    Raises:
        ValueError: initial_guess belongs to another mesh, or a load
            vector has the wrong length or a non-finite value.
    """
    t0 = time.perf_counter()
    if config is None:
        config = SolveConfig()
    if initial_guess is not None and initial_guess.mesh is not mesh:
        raise ValueError("initial_guess belongs to another mesh")
    proj = DivFreeProjector(mesh)
    free = mesh.free_edges()

    if callable(S):
        load = assemble_load(S, mesh)
    else:
        load = np.asarray(S, dtype=float)
        if load.shape != free.shape or not np.all(np.isfinite(load)):
            raise ValueError(f"load vector must be {free.size} finite floats, "
                             f"one per free edge; got shape {load.shape}")

    # Remove the load component that pairs with gradients: it cannot be
    # balanced by the curl term, and without it the energy is invariant
    # under u -> u + G phi, so Newton's right-hand sides stay consistent.
    report = SolveReport()
    clean, _ = proj.strip_gradient(load)
    report.load_gradient_norm = float(np.linalg.norm(load - clean))
    load = clean

    if initial_guess is None:
        u = EdgeField(mesh)
    else:
        u = initial_guess.zero_boundary()
    u, r = _nested_solve(u, load, config.p_target, report.stages)

    # Neither J nor the residual sees the gradient part that the start and
    # the steps leave in u, so the constraint is imposed here, once.
    u, _ = proj.project(u)
    uf = u.coeffs[free]
    un = float(np.sqrt(uf @ (proj.M @ uf)))
    report.constraint = proj.constraint_norm(u.coeffs) / un if un else 0.0

    # The multiplier balances the gradient part of the final residual:
    # M G phi = -r tested against gradients gives G^T M G phi = -G^T r.
    _, multiplier = proj.strip_gradient(-r)
    report.wall_time = time.perf_counter() - t0
    return u, multiplier, report


def _nested_solve(u, load, p_target, stages):
    """Solve at p_target on u's mesh from u; returns (u, residual).

    The p = 2 stage runs first, from u, and sets eps. When the p ramp has
    more than one stage past p = 2, a mesh with a coarse mesh first
    solves there, from zero, with the load P^T load: the same functional
    restricted to the coarse space, with no gradient part, since P maps
    coarse gradients to fine gradients. Its answer, prolongated exactly
    by P, starts one p_target stage here. Otherwise the p ramp runs. Each
    level appends its stage records to `stages`, coarsest first.
    """
    mesh = u.mesh
    schedule = default_p_schedule(p_target)[1:]
    # A one-stage ramp (p_target <= 4) is already as short as nesting
    # makes it, and a coarse solve would only add to it.
    coarse = mesh.coarse if len(schedule) > 1 else None
    if coarse is not None:
        P = mesh.prolongation
        uc, _ = _nested_solve(EdgeField(coarse), P.T @ load, p_target, stages)
        u_coarse = EdgeField(mesh)
        u_coarse.coeffs[mesh.free_edges()] = P @ uc.coeffs[coarse.free_edges()]
        schedule = [p_target]

    load_scale = float(np.linalg.norm(load))
    u, r, rec = _newton_stage(u, load, load_scale, PExponent(2.0))
    stages.append(rec)
    u2, g2 = u, np.linalg.norm(curl_per_tet(u), axis=1).max()

    for p_val in schedule:
        # eps_p: a fixed fraction of the largest curl of c_p u2, c_p the
        # eps = 0 minimizer on the ray of u2; it scales as u does.
        rel = max(1e-8, 10.0 ** (-EPS_SPREAD_DECADES / (p_val - 2.0)))
        c_p = _ray_factor(u2, load, PExponent(p_val))
        pexp = PExponent(p=p_val, eps=rel * c_p * g2)
        if coarse is not None:      # the one stage starts from P uc
            u = u_coarse
        u = EdgeField(mesh, _ray_factor(u, load, pexp) * u.coeffs)
        u, r, rec = _newton_stage(u, load, load_scale, pexp,
                                  inexact=coarse is not None)
        stages.append(rec)
    return u, r


def _ray_factor(u, load, pexp):
    """argmin over c > 0 of J(c u) at pexp; 1 if the load does not pull on u.

    The eps = 0 minimizer bounds it from above, since eps only raises
    dJ/dc, and bisection in log c on the increasing dJ/dc refines it.
    Curls are scaled by their maximum, so no load size overflows.
    """
    g = np.linalg.norm(curl_per_tet(u), axis=1)
    gmax, pull = g.max(), load @ u.coeffs[u.mesh.free_edges()]
    if gmax == 0.0 or pull <= 0.0:
        return 1.0
    g, pull = g / gmax, pull / gmax
    vols, p = u.mesh.geometry.vols, pexp.p

    def slope(s):        # dJ/dc / gmax at c = s / gmax
        return s * np.sum(vols * pexp.weight((s * g)**2) * g * g) - pull

    hi = (pull / np.sum(vols * g**p))**(1.0 / (p - 1.0))
    lo = hi
    while slope(lo) > 0.0:
        lo *= 0.5
    while hi > lo * (1.0 + 1e-12):
        mid = lo * np.sqrt(hi / lo)
        lo, hi = (lo, mid) if slope(mid) > 0.0 else (mid, hi)
    return hi / gmax


def _newton_stage(u, load, load_scale, pexp, inexact=False):
    """Run damped Newton at fixed (p, eps); returns (u, residual, record).

    Each step's CG runs to LINEAR_TOL on its residual. With `inexact`,
    the first step and every step after an accepted full step (t = 1)
    may also stop once CG's estimate of its energy-norm error is below
    eta_k = min(FORCING_MAX, ||r_k|| / ||load||) of the step's energy norm:
    an affine-conjugate inexact Newton step (Deuflhard, *Newton Methods
    for Nonlinear Problems*, 2004, sec. 2.3), whose forcing shrinks with
    the residual, so the stage still ends quadratically. A damped step
    signals that the iterate is far from the minimizer, and the step
    after it is exact.

    Above p = 2 the line search halves from t0 = min(1, max|curl u| /
    max|curl du|), since a step can be ~1e10 times longer than u (on a
    (1, 1, 5) box); the quadratic p = 2 energy takes t0 = 1, exact.
    """
    mesh = u.mesh
    free = mesh.free_edges()
    proj = DivFreeProjector(mesh)

    # The curls of the iterate: the residual, the Jacobian, J and its
    # rounding floor all come from them, and each step gathers only du's.
    vols, g = mesh.geometry.vols, curl_per_tet(u)
    r = assemble_residual(mesh, g, load, pexp)
    res0 = float(np.linalg.norm(r))
    # Relative to the load, so the reported residual means the same from
    # every start; a zero load falls back to the initial residual.
    denom = load_scale or max(res0, np.finfo(float).tiny)
    rec = StageRecord(p=pexp.p, eps=pexp.eps, newton_iterations=0,
                      final_residual=res0 / denom, divisions=mesh.divisions)
    bulk, gsq = _bulk_energy(g, vols, pexp)
    pairing = load @ u.coeffs[free]
    rec.energy_history.append(float(bulk - pairing))

    full_step = inexact             # the first step counts as after one
    while np.linalg.norm(r) > NEWTON_TOL * denom:
        if rec.newton_iterations == MAX_NEWTON:
            raise SolverError(
                f"Newton did not converge at p={pexp.p}, eps={pexp.eps:.2e}: "
                f"relative residual {np.linalg.norm(r) / denom:.3e} after "
                f"{MAX_NEWTON} steps")
        rec.newton_iterations += 1
        A = assemble_jacobian(mesh, g, pexp)
        diag = A.diagonal()
        if not np.all(diag > 0):
            raise SolverError(
                f"Jacobian lost definiteness at p={pexp.p}, "
                f"eps={pexp.eps:.2e}: smallest diagonal entry {diag.min():.3e}")
        # A is singular with the gradients as its kernel; CG converges on
        # it only if the right-hand side has no gradient part, and the
        # leftover of the load projection alone is enough to stall it
        # once Newton has reduced the residual to that level.
        b, _ = proj.strip_gradient(-r)
        # CG stops relative to ||r||: from a start far above the load
        # scale, tighten it so one step can reach NEWTON_TOL * denom.
        tol = LINEAR_TOL * min(1.0, denom / np.linalg.norm(r))
        eta = (min(FORCING_MAX, np.linalg.norm(r) / denom) if full_step
               else None)
        du, lin = cg(A, b, tol=tol, max_iter=20 * free.size, diag=diag,
                     energy_tol=eta)
        rec.linear_iterations += lin.iterations
        # An inexact step still makes Newton progress as long as it
        # carries real information (forcing-term argument); the line
        # search and the Newton budget catch anything worse.
        if not lin.converged and lin.relative_residual > 0.5:
            raise SolverError(
                f"Newton CG stalled at p={pexp.p}, eps={pexp.eps:.2e}: "
                f"relative residual {lin.relative_residual:.3e}")

        J0 = rec.energy_history[-1]
        slope = float(r @ du)       # directional derivative of J
        # Near the minimum the true decrease ~|r|^2 drops below float64
        # rounding of J itself; the floor keeps Armijo from rejecting
        # full Newton steps it cannot measure. It is relative to J's own
        # terms, so it scales with the energy on every box and load.
        J_floor = 64.0 * np.finfo(float).eps * (bulk + abs(pairing))
        step = EdgeField(mesh)
        step.coeffs[free] = du
        dg, dpairing = curl_per_tet(step), float(load @ du)
        gmax, dmax = gsq.max(), np.einsum("tc,tc->t", dg, dg).max()
        bounded = pexp.p > 2.0 and gmax > 0.0 and dmax > 0.0
        t = min(1.0, np.sqrt(gmax / dmax)) if bounded else 1.0
        accepted = False
        for _ in range(LS_MAX + 1):
            g_try = g + t * dg
            # At large p a long trial step can overflow J to inf, which
            # rejects it like any other increase.
            with np.errstate(over="ignore"):
                bulk_try, gsq_try = _bulk_energy(g_try, vols, pexp)
            pairing_try = pairing + t * dpairing
            J_try = float(bulk_try - pairing_try)
            if J_try <= J0 + 1e-4 * t * min(slope, 0.0) + J_floor:
                accepted = True
                break
            t *= LS_BACKTRACK
        if not accepted:
            raise SolverError(
                f"line search failed at p={pexp.p}, eps={pexp.eps:.2e}, "
                f"Newton iteration {rec.newton_iterations} (energy cannot "
                f"decrease)")

        u = EdgeField(mesh, u.coeffs + t * step.coeffs)
        full_step = inexact and t == 1.0
        g, gsq, bulk, pairing = g_try, gsq_try, bulk_try, pairing_try
        r = assemble_residual(mesh, g, load, pexp)
        rec.energy_history.append(J_try)

    rec.final_residual = float(np.linalg.norm(r)) / denom
    return u, r, rec
