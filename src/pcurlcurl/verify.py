"""Numerical certification of the supporting vector-analysis facts.

The constants of two pointwise inequalities for the power map
Phi(v) = |v|^(p-2) v are computed as suprema of the ratio of their two
sides. Both ratios are invariant under a joint rotation and a joint
scaling of (xi, eta) and under swapping xi and eta, so every pair
reduces to xi = e1, eta = t (cos theta, sin theta, 0) with t = 1 - s in
[0, 1] and theta in [0, pi]. There every side of both ratios is a sum of
nonnegative terms (`_power_terms`), so nothing cancels in float64 and,
with |eta| <= |xi| = 1, no power overflows. At fixed s the maximum over
theta is at theta = 0 or pi (`_theta_max`); the maximum over s is
searched on a grid refined around its best cell (`_sweep`). This is not
yet a rigorous enclosure: the search could miss a narrow peak between
grid points, and the s -> 0 end, where ineq1 takes its supremum as a
limit for 2 < p < 3, is reached only down to the grid. Every row of a
sweep equals the matching `check_ineq1`/`check_ineq2` call bit for bit.
The Friedrich constant — the best bound ||u||_Lp <= C ||curl u||_Lp over
boundary-constrained divergence-free fields — is computed discretely:
exactly for p = 2 by a preconditioned LOBPCG block eigensolve of the
projected curl-curl eigenproblem, started on nested meshes from the
prolongated coarse Ritz block, and as a certified lower bound for p > 2
by inverse power iteration on the norm ratio, each step one `solve` at
p. The levels are solved one at a time, so a generator of meshes keeps
one level alive. Green's formulas and scalar-potential extraction close
the loop on the trace and gradient structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (EdgeField, NodalField, PExponent, edge_moments,
                       field_at, local_coeffs, lp_norm_curl, lp_norm_field,
                       power_map)
from .helmholtz import DivFreeProjector
from .linalg import SolverError, cg
from .mesh import Mesh, boundary_faces
from .solver import SolveConfig, solve
from .whitney import TET_RULE, TRIANGLE_RULE


# ---------------------------------------------------------------------------
# Pointwise vector inequalities for the power map
# ---------------------------------------------------------------------------

# The search over s in `_sweep`: uniform and log-spaced points, then
# rounds of points across the two cells beside the last round's best;
# 12 rounds take a uniform cell to the float spacing at s = 1/2.
_S_GRID = np.union1d(np.linspace(0.0, 1.0, 257), np.logspace(-16.0, 0.0, 129))
_ROUNDS, _REFINE = 12, 33


@dataclass
class InequalityReport:
    """One row of the inequality sweep.

    `worst_ratio` is the largest computed ratio of the left side to the
    right side without its constant, i.e. the envelope constant, in the
    reduced form of the module docstring: at each of `samples` points s
    the ratio is maximised over theta exactly (`_theta_max`), and the
    points are a fixed grid and its refinement around the best cell
    (`_sweep`). `violations` counts the evaluated pairs whose ratio is
    not finite, where the kernel says nothing about the constant;
    `worst_ratio` is then inf or NaN. xi = eta (s = 0, theta = 0) is no
    pair and is not evaluated.
    """

    inequality: str                  # "ineq1" or "ineq2"
    p: float
    delta: float
    samples: int
    worst_ratio: float
    violations: int


def _power_terms(s, t, h, log_t, p):
    """|Phi(xi) - Phi(eta)| and (Phi(xi) - Phi(eta)) . (xi - eta).

    For xi = e1 and eta = t (cos theta, sin theta, 0), given s = 1 - t,
    h = sin^2(theta / 2) and log_t = log1p(-s). With T = t^(p-1):

        |Phi(xi) - Phi(eta)|^2 = (1 - T)^2 + 4 T h
        (Phi(xi) - Phi(eta)) . (xi - eta) = s (1 - T) + 2 (t + T) h

    and 1 - T = -expm1((p-1) log t), each to a few ulps.
    """
    a = (p - 1.0) * log_t
    T, one_minus_T = np.exp(a), -np.expm1(a)
    return (np.sqrt(one_minus_T * one_minus_T + 4.0 * T * h),
            s * one_minus_T + 2.0 * (t + T) * h)


def _ratio(inequality, p, delta, s, h):
    """The ratio of `inequality` without its constant, and the pairing
    (Phi(xi) - Phi(eta)) . (xi - eta), at the reduced pair with
    s = 1 - |eta| and h = sin^2(theta / 2); the arguments broadcast."""
    t = 1.0 - s
    with np.errstate(divide="ignore"):          # log 0 = -inf at eta = 0
        log_t = np.log1p(-s)
    lhs, pairing = _power_terms(s, t, h, log_t, p)
    diff = np.sqrt(s * s + 4.0 * t * h)         # |xi - eta|
    tot = 1.0 + t                               # |xi| + |eta|
    if inequality == "ineq1":
        return lhs / (diff**(1.0 - delta) * tot**(p - 2.0 + delta)), pairing
    return diff**(2.0 + delta) * tot**(p - 2.0 - delta) / pairing, pairing


def _theta_max(inequality, p, delta, s):
    """The ratio's maximum over theta at each point s, the count of its
    non-finite values and the smallest pairing, per row.

    p and delta are (rows, 1) columns and s is (rows or 1, points). At
    fixed s the ratio reads f(h) = (a + b h)^alpha / (c + d h)^beta with
    nonnegative coefficients:

        ineq1: a = (1-T)^2, b = 4T, c = s^2, d = 4t,
               alpha = 1/2, beta = (1-delta)/2
        ineq2: a = s^2, b = 4t, c = s (1-T), d = 2 (t+T),
               alpha = 1 + delta/2, beta = 1

    Its log-derivative alpha b / (a + b h) - beta d / (c + d h) vanishes
    at most once, where both terms equal some k, and the second
    log-derivative there is k^2 (1/beta - 1/alpha) >= 0 (delta >= 0
    gives alpha >= beta): a minimum, so the maximum over h in [0, 1] is
    at h = 0 or 1. The h = 0 pair at s = 0 is xi = eta and is dropped.
    """
    h = np.array([0.0, 1.0])[:, None, None]
    with np.errstate(invalid="ignore"):         # 0/0 at xi = eta
        ratio, pairing = _ratio(inequality, p, delta, s, h)
    pair = (s > 0.0) | (h > 0.0)
    return (np.where(pair, ratio, -np.inf).max(axis=0),
            np.count_nonzero(pair & ~np.isfinite(ratio), axis=(0, 2)),
            np.where(pair, pairing, np.inf).min(axis=(0, 2)))


def check_ineq1(p, delta):
    """Envelope constant for the difference bound on the power map:

        | |xi|^(p-2) xi - |eta|^(p-2) eta |
            <= a1 |xi - eta|^(1-delta) (|xi| + |eta|)^(p-2+delta).

    delta is restricted to [0, min(1, p-1)]: beyond 1 the right side
    vanishes faster than the left as eta -> xi and no finite constant
    exists. The constant is the ratio's maximum over theta, which is at
    theta = 0 or pi, searched over s (`_sweep`): computed, not yet a
    rigorous enclosure, with the s -> 0 end open.

    Raises:
        ValueError: p outside (1, inf) or delta out of range.
    """
    return _sweep([("ineq1", p, delta)])[0]


def check_ineq2(p, delta):
    """Envelope constant for the monotonicity lower bound:

        |xi - eta|^(2+delta) (|xi| + |eta|)^(p-2-delta)
            <= a2 ( |xi|^(p-2) xi - |eta|^(p-2) eta ) . (xi - eta).

    Also checks strict positivity of the pairing at every evaluated pair
    xi != eta (the power map is strictly monotone). delta in
    [0, max(0, p-2)] keeps the exponent on the magnitude sum nonnegative
    for p >= 2. The constant is computed as for `check_ineq1`.

    Raises:
        AssertionError: if any evaluated pairing is nonpositive.
        ValueError: p outside (1, inf) or delta out of range.
    """
    return _sweep([("ineq2", p, delta)])[0]


def check_inequalities(p_grid):
    """Both inequalities over p_grid, each at the deltas of `_delta_grid`.

    Returns one report per row, ordered by p and, within a p, ineq1 rows
    before ineq2 rows, each by ascending delta. Every row equals the
    matching `check_ineq1`/`check_ineq2` call; the constants are computed
    as there.

    Raises:
        AssertionError: if any evaluated ineq2 pairing is nonpositive.
        ValueError: a p outside (1, inf).
    """
    rows = [(inequality, p, delta) for p in p_grid
            for inequality in ("ineq1", "ineq2")
            for delta in _delta_grid(p, inequality)]
    return _sweep(rows)


def _delta_cap(p, inequality):
    return min(1.0, p - 1.0) if inequality == "ineq1" else max(0.0, p - 2.0)


def _delta_grid(p, inequality):
    """0, half the cap and the cap on delta, deduplicated and ascending."""
    cap = _delta_cap(p, inequality)
    return sorted({0.0, 0.5 * cap, cap})


def _check_delta(inequality, p, delta):
    if not 1.0 < p < np.inf:
        raise ValueError(f"p must exceed 1 and be finite, got {p}")
    cap = _delta_cap(p, inequality)
    if not 0.0 <= delta <= cap:
        bound = "min(1, p-1)" if inequality == "ineq1" else "max(0, p-2)"
        raise ValueError(f"{inequality} delta must lie in [0, {bound}] "
                         f"= [0, {cap}], got {delta}")


def _sweep(rows):
    """Reports for (inequality, p, delta) rows, in row order.

    The rows of one inequality are searched together, one per array row,
    each in its own elementwise arithmetic. Round 0 evaluates
    `_theta_max` on `_S_GRID`; each further round evaluates _REFINE
    points spanning the two cells beside its row's best point of the
    round before, so the cells shrink 16-fold a round. Every ratio is
    >= 0, inf or NaN, and the maxima propagate NaN and inf, so a finite
    maximum means that every evaluated ratio of its row is finite.
    """
    for inequality, p, delta in rows:
        _check_delta(inequality, p, delta)
    reports = {}
    for inequality in ("ineq1", "ineq2"):
        idx = [i for i, row in enumerate(rows) if row[0] == inequality]
        if not idx:
            continue
        p, delta = (np.array([[rows[i][k]] for i in idx]) for k in (1, 2))
        s, worst, bad, least = _S_GRID[None, :], -np.inf, 0, np.inf
        for _ in range(_ROUNDS + 1):
            top, n_bad, low = _theta_max(inequality, p, delta, s)
            worst = np.maximum(worst, top.max(axis=1))
            bad, least = bad + n_bad, np.minimum(least, low)
            cell = np.clip(np.argmax(top, axis=1)[:, None] + [-1, 1],
                           0, top.shape[1] - 1)
            ends = np.take_along_axis(np.broadcast_to(s, top.shape), cell, 1)
            s = np.linspace(ends[:, 0], ends[:, 1], _REFINE, axis=1)
        for i, top, n_bad, low in zip(idx, worst, bad, least):
            # NaN > 0 is False, so a NaN pairing fails the test too
            if inequality == "ineq2" and not low > 0.0:
                raise AssertionError(
                    f"power-map pairing not strictly positive at p = "
                    f"{rows[i][1]}: smallest sampled pairing {low:.3e}")
            reports[i] = InequalityReport(
                *rows[i], samples=_S_GRID.size + _ROUNDS * _REFINE,
                worst_ratio=float(top), violations=int(n_bad))
    return [reports[i] for i in range(len(rows))]


# ---------------------------------------------------------------------------
# Discrete Friedrich constant
# ---------------------------------------------------------------------------

# Steps of `_friedrich_inverse` before SolverError (4-8 settle it).
_INVERSE_BUDGET = 30

# Seed of the random LOBPCG start block of a mesh without a coarse mesh.
_START_SEED = 0


@dataclass
class FriedrichReport:
    p: float
    constants: list                 # C_h per level
    extrapolated: float = 0.0       # Richardson at p = 2, else the last bound
    lower_bound_only: bool = False  # True for p > 2 (iterated, not eigensolve)
    # per level, of the p = 2 eigensolve (which starts the p > 2 iteration),
    # the coarse levels solved for its nested start included
    iterations: list = field(default_factory=list)         # outer LOBPCG
    linear_iterations: list = field(default_factory=list)  # stiffness CG


def friedrich_constant(meshes, p):
    """Best discrete constant in ||u||_Lp <= C ||curl u||_Lp on each mesh.

    `meshes` may be any iterable, a generator included: the levels are
    solved one at a time, and only their constants, counters, the last
    two mean tet volumes and the last level's Ritz block outlive a
    level, so a generator keeps one mesh alive at a time.

    p = 2: C_h = 1/sqrt(lambda_min) where lambda_min is the smallest
    curl-curl eigenvalue over discretely divergence-free constrained
    fields, found by LOBPCG with a block of 6, a loose stiffness-CG
    preconditioner and a divergence-free projection of every block (the
    projection removes the gradient kernel, on which the stiffness is
    singular). It stops when the 3 lowest Ritz pairs have relative
    residual ||K x - lambda M x|| / (lambda ||M x||) <= 1e-8, after at
    most 200 iterations. Only those 3 pairs, while unconverged, get
    search directions; the other 3 columns guard the Rayleigh-Ritz
    step. A mesh with a coarse mesh (`Mesh.coarse`) starts from the
    prolongated Ritz block of its coarse level, solved first the same
    way, or reused when the previous level has its divisions and box
    (in levels 4, 8, 12, 8^3 starts from 4^3, and 12^3 from 6^3 and
    3^3). Only a mesh without a coarse mesh, at the bottom of that
    recursion or on its own, starts from a random block of the fixed
    seed `_START_SEED`; the constants do not depend on it beyond the
    eigensolve's tolerance. The report counts, per level, the outer
    iterations and the stiffness-CG iterations, coarse levels solved for
    it included; a reused level counts once, at its own level.

    p > 2: inverse power iteration from the p = 2 maximizer, one `solve`
    at p per step, until an iterate raises the ratio ||u||_p /
    ||curl u||_p by at most 1e-8 relative (`_friedrich_inverse`); the
    best ratio seen is a certified lower bound for C_h.

    Extrapolation (p = 2 only) assumes second-order eigenvalue
    convergence and uses the last two levels: C = C_2 + (C_2 - C_1) /
    (r^2 - 1), where r is the ratio of their mesh sizes h = cbrt(mean
    tet volume); it is the last constant when the two sizes are equal.
    For p > 2 (`lower_bound_only`) the constants are lower bounds with
    no known convergence order, so `extrapolated` is the finest level's
    bound.

    Raises:
        ValueError: no mesh is given, or p is not a finite number >= 2.
        SolverError: an eigensolve or the p > 2 iteration fails.
    """
    PExponent(p)                    # ValueError unless 2 <= p < inf
    constants = []
    iterations = []
    linear_iterations = []
    vols = []                       # mean tet volume of the last two levels
    last = None                     # (level key, Ritz block) of the last level
    for mesh in meshes:
        u2, (c2, its, lin), X = _friedrich_p2(mesh, last)
        last = (_level_key(mesh), X)
        iterations.append(its)
        linear_iterations.append(lin)
        constants.append(c2 if p == 2.0 else _friedrich_inverse(u2, p))
        vols = [*vols[-1:], mesh.geometry.vols.mean()]
        del mesh, u2                # free this level before the next is built
    if not constants:
        raise ValueError("friedrich_constant needs at least one mesh")
    extrap = constants[-1]
    if p == 2.0 and len(vols) == 2:
        # mesh-size ratio h_prev / h_last, with h the cube root of the
        # mean tet volume: exactly 2 on a doubling of the divisions
        r = np.cbrt(vols[0] / vols[1])
        if r != 1.0:
            extrap = (constants[-1]
                      + (constants[-1] - constants[-2]) / (r * r - 1.0))
    return FriedrichReport(p=float(p), constants=constants,
                           extrapolated=float(extrap),
                           lower_bound_only=(p != 2.0), iterations=iterations,
                           linear_iterations=linear_iterations)


def _level_key(mesh):
    """Divisions and box of a box mesh: equal keys are the same level."""
    origin, extents = mesh.box
    return mesh.divisions, tuple(origin), tuple(extents)


def _friedrich_p2(mesh, last=None):
    """Smallest constrained curl-curl eigenvalue by preconditioned LOBPCG.

    Returns the maximizer u, (C_h, outer iterations, stiffness-CG
    iterations) and the final Ritz block X on the free edges. The
    lowest cavity eigenvalue has multiplicity 3 in the continuum and
    splits into a tight discrete cluster, so the pencil (K, M) on the
    free edges is iterated with a block of 6 (Knyazev, SIAM J. Sci.
    Comput. 23, 2001). A mesh with a coarse mesh starts from P X_coarse,
    P = `mesh.prolongation`, by nested iteration (Brandt, McCormick &
    Ruge, SIAM J. Sci. Stat. Comput. 4, 1983): X_coarse is the Ritz
    block of `last`, a (key, block) pair, when its key is the coarse
    level's, and is otherwise solved recursively, its counts added to
    this level's. Any other mesh starts from a random block drawn with
    `_START_SEED`. Every coarse mesh has 3 or more divisions per axis,
    so its block has 6 columns too. Each watched
    residual column is preconditioned by a loose CG solve on K (tol 0.1; its
    convergence flag is ignored, as it only preconditions): R = KX - MX
    Theta is orthogonal to the gradients, so CG on the singular K is
    consistent. The start block and every preconditioned block are
    projected onto the divergence-free complement (Arbenz et al., IJNME
    64, 2005), which keeps the gradient kernel of K out of the search
    space. The basis follows Hetmaniuk & Lehoucq (J. Comput. Phys. 218,
    2006): W is M-orthogonalized against X, P against [X, W], twice each,
    and each block is M-orthonormalized on its own, so the Rayleigh-Ritz
    step on [X, W, P] is a standard symmetric eigenproblem. The iteration
    stops when the 3 lowest ("watched") Ritz pairs have
    ||K x - theta M x|| <= 1e-8 theta ||M x||, so only their columns
    get search directions in W and P, and only while their residual is
    above that tolerance (soft locking); the other 3 columns stay in X
    as guard vectors of the Rayleigh-Ritz step. K is `mesh.stiffness`,
    and M is the projector's mass matrix.

    Raises:
        SolverError: no stop within 200 iterations, or a basis block
            that lost rank; the message carries the residuals.
    """
    proj = DivFreeProjector(mesh)
    free = mesh.free_edges()
    K, M = mesh.stiffness, proj.M
    # [X, W, P] must fit in the divergence-free space, whose dimension is
    # the free edge count less one constraint per interior vertex
    dim = free.size - mesh.interior_vertices().size
    block = min(6, max(1, dim // 3))
    watched = min(3, block)
    linear_iterations = 0

    def project_cols(X):
        out = np.empty_like(X)
        for j in range(X.shape[1]):
            u = EdgeField(mesh)
            u.coeffs[free] = X[:, j]
            u, _ = proj.project(u)
            out[:, j] = u.coeffs[free]
        return out

    def precondition(R):
        nonlocal linear_iterations
        W = np.empty_like(R)
        for j in range(R.shape[1]):
            W[:, j], rep = cg(K, R[:, j], tol=0.1)
            linear_iterations += rep.iterations
        return project_cols(W)

    def m_orthonormal(B, iteration, residuals):
        B = _m_orthonormalize(B, M)
        if B is None:
            raise SolverError(
                f"LOBPCG basis lost rank after {iteration} iterations; "
                f"relative residuals {_format(residuals[:watched])}")
        return B

    iterations = 0
    coarse = mesh.coarse
    if coarse is None:
        rng = np.random.default_rng(_START_SEED)
        X = rng.standard_normal((free.size, block))
    elif last is not None and last[0] == _level_key(coarse):
        X = mesh.prolongation @ last[1]
    else:
        _, (_, iterations, linear_iterations), Xc = _friedrich_p2(coarse, last)
        X = mesh.prolongation @ Xc
    X = _m_orthonormalize(project_cols(X), M)
    theta, Q = np.linalg.eigh(X.T @ (K @ X))
    X = X @ Q
    P = None
    for iteration in range(201):
        KX, MX = K @ X, M @ X
        R = KX - MX * theta
        res = np.linalg.norm(R, axis=0) / (theta * np.linalg.norm(MX, axis=0))
        if np.all(res[:watched] <= 1e-8):
            break
        if iteration == 200:
            raise SolverError(
                f"LOBPCG did not converge in 200 iterations; relative "
                f"residuals of the lowest {watched} Ritz pairs "
                f"{_format(res[:watched])}")
        # converged columns leave W and P: their directions would be
        # rounding noise, and noise carries gradients. So do the guard
        # columns past `watched`: the stop test never reads them, and
        # they stay in X for the Rayleigh-Ritz step only
        active = res > 1e-8
        active[watched:] = False
        W = precondition(R[:, active])
        for _ in range(2):
            W -= X @ (X.T @ (M @ W))
        blocks = [X, m_orthonormal(W, iteration, res)]
        if P is not None:
            P = P[:, active]
            for _ in range(2):
                for B in blocks:
                    P -= B @ (B.T @ (M @ P))
            blocks.append(m_orthonormal(P, iteration, res))
        S = np.hstack(blocks)
        w, C = np.linalg.eigh(S.T @ (K @ S))
        theta, C = w[:block], C[:, :block]
        X = S @ C
        P = S[:, block:] @ C[block:]
    u = EdgeField(mesh)
    u.coeffs[free] = X[:, 0]
    return (u, (1.0 / np.sqrt(theta[0]), iterations + iteration,
                linear_iterations), X)


def _m_orthonormalize(B, M):
    """B with M-orthonormal columns spanning the same space, or None.

    Cholesky QR on the Gram matrix after scaling its diagonal to 1; None
    when a column vanishes or the Gram matrix is not positive definite.
    """
    gram = B.T @ (M @ B)
    d = np.sqrt(np.diag(gram))
    if not np.all(d > 0):
        return None
    try:
        L = np.linalg.cholesky(gram / np.outer(d, d))
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(L, (B / d).T).T


def _format(values):
    return ", ".join(f"{v:.3e}" for v in values)


def _friedrich_inverse(u2, p):
    """Best ratio ||u||_Lp / ||curl u||_Lp of inverse power iteration
    from the p = 2 maximizer u2 (Biezuner, Ercole & Martins, J. Funct.
    Anal. 257, 2009): with ||u_k||_Lp = 1, `solve` at p gives w with
    curl(|curl w|^(p-2) curl w) = |u_k|^(p-2) u_k, and u_(k+1) =
    w / ||w||_Lp has the exact ratio 1 / ||curl u_(k+1)||_Lp, a lower
    bound for C_h. The ratios rise monotonically at eps = 0 only, so the
    best is kept; an iterate that raises it by <= 1e-8 relative stops
    the loop, and SolverError ends it after _INVERSE_BUDGET steps.
    """
    mesh = u2.mesh
    config = SolveConfig(p_target=p)
    u = EdgeField(mesh, u2.coeffs / lp_norm_field(u2, p))
    best = 1.0 / lp_norm_curl(u, p)
    gains = []
    for _ in range(_INVERSE_BUDGET):
        w, _, _ = solve(mesh, _power_load(u, p), config)
        u = EdgeField(mesh, w.coeffs / lp_norm_field(w, p))
        ratio = 1.0 / lp_norm_curl(u, p)
        gains.append((ratio - best) / best)
        best = max(best, ratio)
        if gains[-1] <= 1e-8:
            return float(best)
    raise SolverError(
        f"Friedrich inverse iteration at p = {p} did not settle in "
        f"{_INVERSE_BUDGET} iterations; last relative increments "
        f"{_format(gains[-3:])}")


def _power_load(u, p):
    """(|u|^(p-2) u, W_e) on the free edges by `TET_RULE` quadrature,
    streamed over tet blocks by `edge_moments`."""
    pexp = PExponent(p)
    return edge_moments(u.mesh, lambda tets: power_map(field_at(u, tets), pexp))


# ---------------------------------------------------------------------------
# Green's formulas
# ---------------------------------------------------------------------------

@dataclass
class SmoothFieldPair:
    """Analytic fields with analytic derivatives for Green identity checks.

    u, curl_u, div_u feed both identities; v/grad_v is the scalar partner
    for the divergence formula, w/curl_w the vector partner for the curl
    formula. All callables map (N, 3) points to (N, 3) or (N,) arrays.
    """

    u: callable
    curl_u: callable
    div_u: callable
    v: callable
    grad_v: callable
    w: callable
    curl_w: callable


def default_smooth_pair():
    """Exponential-trigonometric fields with nonzero boundary traces.

    Frequencies are deliberately incommensurate with the box period: for
    periodic integrands the composite rules on a uniform mesh converge
    spectrally (all error terms cancel), which would hide the quadrature
    rate the residuals are meant to expose.
    """
    a, b = 0.3, 0.9                 # growth rate, frequency

    def u(x):
        return np.column_stack([
            np.exp(a * x[:, 2]) * np.sin(b * x[:, 1]) + 0.1 * x[:, 0]**2,
            np.exp(a * x[:, 0]) * np.sin(b * x[:, 2]),
            np.exp(a * x[:, 1]) * np.sin(b * x[:, 0])])

    def div_u(x):
        return 0.2 * x[:, 0]

    def curl_u(x):
        ex, ey, ez = (np.exp(a * x[:, 0]), np.exp(a * x[:, 1]),
                      np.exp(a * x[:, 2]))
        return np.column_stack([
            a * ey * np.sin(b * x[:, 0]) - b * ex * np.cos(b * x[:, 2]),
            a * ez * np.sin(b * x[:, 1]) - b * ey * np.cos(b * x[:, 0]),
            a * ex * np.sin(b * x[:, 2]) - b * ez * np.cos(b * x[:, 1])])

    def v(x):
        return np.exp(a * x[:, 0]) * np.sin(b * x[:, 1]) * np.cos(b * x[:, 2])

    def grad_v(x):
        ex = np.exp(a * x[:, 0])
        return np.column_stack([
            a * ex * np.sin(b * x[:, 1]) * np.cos(b * x[:, 2]),
            b * ex * np.cos(b * x[:, 1]) * np.cos(b * x[:, 2]),
            -b * ex * np.sin(b * x[:, 1]) * np.sin(b * x[:, 2])])

    def w(x):
        return np.column_stack([np.sin(b * x[:, 2]), np.sin(b * x[:, 0]),
                                np.sin(b * x[:, 1])])

    def curl_w(x):
        return np.column_stack([b * np.cos(b * x[:, 1]),
                                b * np.cos(b * x[:, 2]),
                                b * np.cos(b * x[:, 0])])

    return SmoothFieldPair(u=u, curl_u=curl_u, div_u=div_u, v=v,
                           grad_v=grad_v, w=w, curl_w=curl_w)


def check_green_formulas(mesh: Mesh, pair: SmoothFieldPair):
    """Residuals of the two Green identities under quadrature.

        div : (u, grad v) + (div u, v)  = surface integral of (n.u) v
        curl: (curl u, w) - (u, curl w) = surface integral of (n x u).w

    Both sides use `TET_RULE` and `TRIANGLE_RULE` (exact through degree
    5); residuals shrink at the quadrature rate under refinement.
    """
    xq = (TET_RULE.points @ mesh.vertices[mesh.tets]).reshape(-1, 3)
    wvol = (mesh.geometry.vols[:, None] * TET_RULE.weights[None, :]).ravel()

    def vol_int(values):
        return float(wvol @ values)

    faces, normals, areas = boundary_faces(mesh)
    pv = mesh.vertices[faces]                           # (F, 3, 3)
    xs = np.einsum("qi,fix->fqx", TRIANGLE_RULE.points, pv).reshape(-1, 3)
    wsurf = (areas[:, None] * TRIANGLE_RULE.weights[None, :]).ravel()
    nrep = np.repeat(normals, TRIANGLE_RULE.weights.size, axis=0)

    u_vol = pair.u(xq)
    lhs_div = vol_int(np.einsum("ij,ij->i", u_vol, pair.grad_v(xq))
                      + pair.div_u(xq) * pair.v(xq))
    u_srf = pair.u(xs)
    rhs_div = float(wsurf @ (np.einsum("ij,ij->i", nrep, u_srf) * pair.v(xs)))

    lhs_curl = vol_int(np.einsum("ij,ij->i", pair.curl_u(xq), pair.w(xq))
                       - np.einsum("ij,ij->i", u_vol, pair.curl_w(xq)))
    rhs_curl = float(wsurf @ np.einsum("ij,ij->i",
                                       np.cross(nrep, u_srf), pair.w(xs)))
    return abs(lhs_div - rhs_div), abs(lhs_curl - rhs_curl)


# ---------------------------------------------------------------------------
# Scalar potential of curl-free edge fields
# ---------------------------------------------------------------------------

def extract_scalar_potential(u: EdgeField):
    """Potential phi with G phi = u, fixed by mean-zero normalization.

    Integrates edge values along a breadth-first spanning tree of the
    vertex graph (`Mesh.bfs_tree`), one level at a time; discrete
    curl-freeness guarantees closure on the remaining edges, which is
    checked explicitly. Deterministic for a fixed mesh.

    Curl-freeness is checked on the circulation around every tet face
    (the signed sum of its three edge coefficients), relative to the
    largest coefficient: the per-tet curl is that circulation over the
    face area, so an absolute curl bound tightens like 1/h^2 on fine
    meshes and rejects exact gradients rounded in float64. The closure
    check is relative to the same scale, so it holds at any magnitude.

    Raises:
        ValueError: a non-finite coefficient, or a face circulation
            above 1e-12, or a closure violation above 1e-10, times the
            largest coefficient (input not a gradient field).
    """
    mesh = u.mesh
    c = local_coeffs(u)                                 # along local lo -> hi
    # faces (0,1,2), (0,1,3), (0,2,3), (1,2,3) in LOCAL_EDGES numbering
    circ = c[:, [0, 0, 1, 3]] + c[:, [3, 4, 5, 5]] - c[:, [1, 2, 2, 4]]
    worst = float(np.abs(circ).max(initial=0.0))
    scale = float(np.abs(u.coeffs).max(initial=0.0))
    if not np.isfinite(scale):
        raise ValueError("field has non-finite coefficients")
    if not worst <= 1e-12 * scale:      # NaN fails it too
        raise ValueError(
            f"field is not curl-free: max face circulation {worst:.3e} "
            f"against coefficient scale {scale:.3e}")

    lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
    phi = np.zeros(mesh.num_vertices)
    tree_edge = np.zeros(mesh.num_edges, dtype=bool)
    for eid, parent, child in mesh.bfs_tree:
        tree_edge[eid] = True
        # u_e = phi_hi - phi_lo; a level's parents are all set already
        step = np.where(child == hi[eid], u.coeffs[eid], -u.coeffs[eid])
        phi[child] = phi[parent] + step
    if np.count_nonzero(tree_edge) != mesh.num_vertices - 1:
        raise ValueError("mesh vertex graph is disconnected")

    closure = np.abs(phi[hi] - phi[lo] - u.coeffs)
    worst = float(closure[~tree_edge].max(initial=0.0))
    if not worst <= 1e-10 * scale:
        raise ValueError(
            f"closure violation {worst:.3e} on non-tree edges: "
            f"input is not a gradient field")
    phi -= phi.mean()
    return NodalField(mesh, phi)
