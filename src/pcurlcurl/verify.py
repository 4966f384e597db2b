"""Numerical certification of the supporting vector-analysis facts.

Two pointwise power-map inequalities are certified by seeded sampling
(the constants are *estimated* as envelope suprema, not proven — but the
ratios are scale-invariant, so sampling with adversarial families at
mixed radii covers the asymptotic regimes where the sup is attained).
`check_inequalities` sweeps a whole (p, delta) grid of both from one
draw per sampling radius: the power map is evaluated once per p, in row
blocks, and each delta costs only 1-D work. `check_ineq1`/`check_ineq2`
are single-row calls of the same kernel, so every row of a sweep equals
the matching single call bit for bit.
The Friedrich constant — the best bound ||u||_Lp <= C ||curl u||_Lp over
boundary-constrained divergence-free fields — is computed discretely:
exactly for p = 2 by a preconditioned LOBPCG block eigensolve of the
projected curl-curl eigenproblem, and as a certified lower bound for
p > 2 via projected ascent on the norm ratio. Green's formulas and
scalar-potential extraction close the loop on the trace and gradient
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import whitney
from .assembly import (EdgeField, NodalField, PExponent, assemble_residual,
                       edge_moments, eval_field, local_coeffs, lp_norm_curl,
                       scatter_blocks, stiffness_blocks)
from .helmholtz import DivFreeProjector
from .linalg import SolverError, cg
from .mesh import Mesh, boundary_faces


# ---------------------------------------------------------------------------
# Pointwise vector inequalities for the power map
# ---------------------------------------------------------------------------

SAMPLE_FAMILIES = ("unit-ball", "log-uniform radii", "near-collinear",
                   "near-equal", "antipodal/one-sided")


# Rows per block of the power-map evaluation in `_power_terms`.
_BLOCK_ROWS = 2**16


@dataclass
class InequalityReport:
    inequality: str                  # "ineq1" or "ineq2"
    p: float
    delta: float
    samples: int
    worst_ratio: float
    violations: int
    families: str = ", ".join(SAMPLE_FAMILIES)


def _row_norm(v):
    """Euclidean norm of each row of an (n, 3) array.

    The same bits as `np.linalg.norm(v, axis=1)`, which also sums
    x*x + y*y + z*z left to right, at about twice the speed.
    """
    x, y, z = v.T
    return np.sqrt(x * x + y * y + z * z)


def _power(v, p):
    """|v|^(p-2) v rowwise (unregularized; 0 at v = 0 for p >= 2)."""
    mag = _row_norm(v)[:, None]
    with np.errstate(invalid="ignore"):
        w = np.where(mag > 0, mag**(p - 2.0), 0.0 if p > 2 else 1.0)
    return w * v


def _radius_exponent(p):
    """Largest safe log10 sampling radius for the given exponent.

    Norm evaluation squares entries of size up to (4 r)^(p-1), so r must
    satisfy 2 (p-1) (log10 r + 0.7) < 308 with margin.
    """
    return min(6.0, max(0.3, 130.0 / max(p - 1.0, 1.0) - 0.7))


def _sample_pairs(n, rng, rexp=6.0):
    """Mixed-scale adversarial sample pairs (xi, eta) in R^3.

    `rexp` bounds the log10 radius range; both inequality ratios are
    scale-invariant, so shrinking the range (needed to keep |v|^(p-1)
    finite for large p) does not hide any regime.
    """
    quarters = np.array_split(np.arange(n), 4)
    xi = np.empty((n, 3))
    eta = np.empty((n, 3))

    def ball(k):
        v = rng.standard_normal((k, 3))
        v /= _row_norm(v)[:, None]
        return v * rng.uniform(0, 1, (k, 1)) ** (1 / 3)

    def log_radius(k):
        v = rng.standard_normal((k, 3))
        v /= _row_norm(v)[:, None]
        return v * 10.0 ** rng.uniform(-rexp, rexp, (k, 1))

    k = quarters[0].size
    xi[quarters[0]] = ball(k)
    eta[quarters[0]] = ball(k)

    k = quarters[1].size
    xi[quarters[1]] = log_radius(k)
    eta[quarters[1]] = log_radius(k)

    # near-collinear: eta is a stretched xi plus a tiny transverse kick
    k = quarters[2].size
    base = log_radius(k)
    stretch = 1.0 + 10.0 ** rng.uniform(-8, 0, (k, 1)) * rng.choice([-1, 1], (k, 1))
    kick = rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-10, -2, (k, 1)) \
        * _row_norm(base)[:, None]
    xi[quarters[2]] = base
    eta[quarters[2]] = base * stretch + kick

    # near-equal: relative perturbations down to 1e-12
    k = quarters[3].size
    base = log_radius(k)
    pert = rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-12, -6, (k, 1)) \
        * _row_norm(base)[:, None]
    xi[quarters[3]] = base
    eta[quarters[3]] = base + pert

    # pinned adversarial rows: exact antipodal and one-sided pairs
    m = min(8, n)
    dirs = rng.standard_normal((m, 3))
    dirs /= _row_norm(dirs)[:, None]
    xi[:m] = dirs
    eta[:m] = -dirs
    eta[: m // 2] = 0.0
    return xi, eta


def check_ineq1(p, delta, n_samples, rng_seed=0):
    """Envelope constant for the difference bound on the power map:

        | |xi|^(p-2) xi - |eta|^(p-2) eta |
            <= a1 |xi - eta|^(1-delta) (|xi| + |eta|)^(p-2+delta).

    delta is restricted to [0, min(1, p-1)]: beyond 1 the right side
    vanishes faster than the left as eta -> xi and no finite constant
    exists.
    """
    return _sweep([("ineq1", p, delta)], n_samples, rng_seed)[0]


def check_ineq2(p, delta, n_samples, rng_seed=0):
    """Envelope constant for the monotonicity lower bound:

        |xi - eta|^(2+delta) (|xi| + |eta|)^(p-2-delta)
            <= a2 ( |xi|^(p-2) xi - |eta|^(p-2) eta ) . (xi - eta).

    Also certifies strict positivity of the pairing for xi != eta (the
    power map is strictly monotone). delta in [0, p-2] keeps the exponent
    on the magnitude sum nonnegative.

    Raises:
        AssertionError: if any sampled pairing is nonpositive.
    """
    return _sweep([("ineq2", p, delta)], n_samples, rng_seed)[0]


def check_inequalities(p_grid, n_samples, rng_seed=0):
    """Both inequalities over p_grid, each at the deltas of `_delta_grid`.

    Returns one report per row, ordered by p and, within a p, ineq1 rows
    before ineq2 rows, each by ascending delta. Every row equals the
    matching `check_ineq1`/`check_ineq2` call: all rows at one sampling
    radius share a single draw.

    Raises:
        AssertionError: if any sampled ineq2 pairing is nonpositive.
    """
    rows = [(inequality, p, delta) for p in p_grid
            for inequality in ("ineq1", "ineq2")
            for delta in _delta_grid(p, inequality)]
    return _sweep(rows, n_samples, rng_seed)


def _delta_grid(p, inequality):
    """0, half the cap and the cap on delta, deduplicated and ascending."""
    cap = min(1.0, p - 1.0) if inequality == "ineq1" else p - 2.0
    vals = [0.0, 0.5 * cap, cap]
    return sorted(set(round(v, 12) for v in vals if v >= 0.0))


def _check_delta(inequality, p, delta):
    if inequality == "ineq1":
        if not 0.0 <= delta <= min(1.0, p - 1.0):
            raise ValueError(
                f"delta must lie in [0, min(1, p-1)], got {delta}")
    elif p >= 2.0 and not 0.0 <= delta <= p - 2.0 + 1e-15:
        raise ValueError(f"delta must lie in [0, p-2], got {delta}")


def _sweep(rows, n_samples, rng_seed):
    """Reports for (inequality, p, delta) rows, in row order.

    The p values are grouped by sampling radius, and each group is
    evaluated on its own draw, one draw alive at a time.
    """
    for inequality, p, delta in rows:
        _check_delta(inequality, p, delta)
    groups = {}                      # radius exponent -> p -> row indices
    for i, (_, p, _) in enumerate(rows):
        groups.setdefault(_radius_exponent(p), {}).setdefault(p, []).append(i)
    reports = {}
    for rexp, by_p in groups.items():
        reports.update(_sweep_draw(rows, by_p, n_samples, rng_seed, rexp))
    return [reports[i] for i in range(len(rows))]


def _sweep_draw(rows, by_p, n_samples, rng_seed, rexp):
    """Reports, by row index, for the rows of `by_p` from one draw at rexp.

    The row quantities that do not depend on p are computed once, the
    power map once per p, and each delta costs only 1-D work.
    """
    xi, eta = _sample_pairs(n_samples, np.random.default_rng(rng_seed), rexp)
    diff = _row_norm(xi - eta)
    tot = _row_norm(xi) + _row_norm(eta)
    keep = (diff > 0) & (tot > 0)
    samples = int(np.sum(keep))
    diff, tot = diff[keep], tot[keep]
    reports = {}
    for p, idx in by_p.items():
        lhs, pairing = _power_terms(xi, eta, p)
        lhs, pairing = lhs[keep], pairing[keep]
        if any(rows[i][0] == "ineq2" for i in idx) and \
                not np.all(pairing > 0.0):
            raise AssertionError(
                f"power-map pairing not strictly positive at p = {p}: "
                f"smallest sampled pairing {float(np.min(pairing)):.3e}")
        for i in idx:
            inequality, p_row, delta = rows[i]
            if inequality == "ineq1":
                num = lhs
                den = diff**(1.0 - delta) * tot**(p - 2.0 + delta)
            else:
                num = diff**(2.0 + delta) * tot**(p - 2.0 - delta)
                den = pairing
            worst = float(np.max(num / den))
            violations = int(np.sum(num > worst * den * (1 + 1e-12)))
            reports[i] = InequalityReport(
                inequality=inequality, p=p_row, delta=delta, samples=samples,
                worst_ratio=worst, violations=violations)
    return reports


def _power_terms(xi, eta, p):
    """|P(xi) - P(eta)| and (P(xi) - P(eta)).(xi - eta) rowwise, P = _power.

    Evaluated _BLOCK_ROWS rows at a time, so no (n, 3) power-map
    temporary is made; both are per-row reductions, so the blocking
    does not change a bit of the result.
    """
    n = xi.shape[0]
    norm = np.empty(n)
    pairing = np.empty(n)
    for s in range(0, n, _BLOCK_ROWS):
        x, e = xi[s:s + _BLOCK_ROWS], eta[s:s + _BLOCK_ROWS]
        dp = _power(x, p) - _power(e, p)
        norm[s:s + _BLOCK_ROWS] = _row_norm(dp)
        pairing[s:s + _BLOCK_ROWS] = np.einsum("ij,ij->i", dp, x - e)
    return norm, pairing


# ---------------------------------------------------------------------------
# Discrete Friedrich constant
# ---------------------------------------------------------------------------

@dataclass
class FriedrichReport:
    p: float
    constants: list                 # C_h per level
    extrapolated: float = 0.0
    lower_bound_only: bool = False  # True for p > 2 (ascent, not eigensolve)
    # per level, of the p = 2 eigensolve (which also starts the p > 2 ascent)
    iterations: list = field(default_factory=list)         # outer LOBPCG
    linear_iterations: list = field(default_factory=list)  # stiffness CG


def friedrich_constant(meshes, p, seed=0):
    """Best discrete constant in ||u||_Lp <= C ||curl u||_Lp on each mesh.

    p = 2: C_h = 1/sqrt(lambda_min) where lambda_min is the smallest
    curl-curl eigenvalue over discretely divergence-free constrained
    fields, found by LOBPCG with a block of 6, a loose stiffness-CG
    preconditioner and a divergence-free projection of every block (the
    projection removes the gradient kernel, on which the stiffness is
    singular). It stops when the 3 lowest Ritz pairs have relative
    residual ||K x - lambda M x|| / (lambda ||M x||) <= 1e-8, after at
    most 200 iterations; the report counts the iterations and the
    stiffness-CG iterations per level.

    p > 2: 150 trial steps of projected gradient ascent on
    log(||u||_p / ||curl u||_p) started from the p = 2 maximizer; the
    result is a certified lower bound for C_h.

    Extrapolation assumes second-order eigenvalue convergence and uses
    the last two levels: C = C_2 + (C_2 - C_1) / (r^2 - 1), where r is
    the ratio of their mesh sizes h = cbrt(mean tet volume); it is the
    last constant when the two sizes are equal.

    Raises:
        ValueError: no mesh is given.
    """
    meshes = list(meshes)
    if not meshes:
        raise ValueError("friedrich_constant needs at least one mesh")
    constants = []
    iterations = []
    linear_iterations = []
    for mesh in meshes:
        proj = DivFreeProjector(mesh)
        u2, (c2, its, lin) = _friedrich_p2(proj, seed)
        iterations.append(its)
        linear_iterations.append(lin)
        if p == 2.0:
            constants.append(c2)
        else:
            constants.append(_friedrich_ascent(proj, u2, p))
    extrap = constants[-1]
    if len(constants) >= 2:
        # mesh-size ratio h_prev / h_last, with h the cube root of the
        # mean tet volume: exactly 2 on a doubling of the divisions
        r = np.cbrt(meshes[-2].geometry.vols.mean()
                    / meshes[-1].geometry.vols.mean())
        if r != 1.0:
            extrap = (constants[-1]
                      + (constants[-1] - constants[-2]) / (r * r - 1.0))
    return FriedrichReport(p=float(p), constants=constants,
                           extrapolated=float(extrap),
                           lower_bound_only=(p != 2.0), iterations=iterations,
                           linear_iterations=linear_iterations)


def _friedrich_p2(proj, seed):
    """Smallest constrained curl-curl eigenvalue by preconditioned LOBPCG.

    Returns the maximizer u and (C_h, outer iterations, stiffness-CG
    iterations). The lowest cavity eigenvalue has multiplicity 3 in the
    continuum and splits into a tight discrete cluster, so the pencil
    (K, M) on the free edges is iterated with a block of 6 from a seeded
    random start (Knyazev, SIAM J. Sci. Comput. 23, 2001). Each residual
    column is preconditioned by a loose CG solve on K (tol 0.1; its
    convergence flag is ignored, as it only preconditions): R = KX - MX
    Theta is orthogonal to the gradients, so CG on the singular K is
    consistent. The start block and every preconditioned block are
    projected onto the divergence-free complement (Arbenz et al., IJNME
    64, 2005), which keeps the gradient kernel of K out of the search
    space. The basis follows Hetmaniuk & Lehoucq (J. Comput. Phys. 218,
    2006): W is M-orthogonalized against X, P against [X, W], twice each,
    and each block is M-orthonormalized on its own, so the Rayleigh-Ritz
    step on [X, W, P] is a standard symmetric eigenproblem. Columns whose
    residual is already below the stopping tolerance leave W and P (soft
    locking). The iteration stops when the 3 lowest Ritz pairs have
    ||K x - theta M x|| <= 1e-8 theta ||M x||. `proj` is the mesh's
    DivFreeProjector, and its M is the pencil's mass matrix.

    Raises:
        SolverError: no stop within 200 iterations, or a basis block
            that lost rank; the message carries the residuals.
    """
    mesh = proj.mesh
    free = mesh.free_edges()
    K = scatter_blocks(mesh, stiffness_blocks(mesh)).copy()
    # The Kuhn split leaves exact zeros in K's pattern (orthogonal basis
    # curls): dropping them makes each preconditioner matvec ~20% cheaper.
    K.eliminate_zeros()
    M = proj.M
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
            u, _ = proj.project(u, tol=1e-13)
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

    rng = np.random.default_rng(seed)
    X = project_cols(rng.standard_normal((free.size, block)))
    X = _m_orthonormalize(X, M)
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
        # rounding noise, and noise carries gradients
        active = res > 1e-8
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
    return u, (1.0 / np.sqrt(theta[0]), iteration, linear_iterations)


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


def _friedrich_ascent(proj, u_start, p):
    """Projected ascent on the Lp norm ratio; returns a lower bound."""
    mesh = proj.mesh
    free = mesh.free_edges()
    u = EdgeField(mesh, u_start.coeffs.copy())

    best, grad = _ratio_and_grad(u, p)
    step = 1.0
    for _ in range(150):
        trial = EdgeField(mesh)
        trial.coeffs[free] = u.coeffs[free] + step * grad / max(np.linalg.norm(grad), 1e-300)
        trial, _ = proj.project(trial, tol=1e-12)
        trial.coeffs /= lp_norm_curl(trial, p)
        r_try, g_try = _ratio_and_grad(trial, p)
        if r_try > best:
            u, best, grad = trial, r_try, g_try
            step *= 1.3
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return float(best)


def _ratio_and_grad(u, p):
    """||u||_Lp / ||curl u||_Lp and the gradient of its log in the free
    coefficients; `assemble_residual` with no load and eps = 0 is the
    gradient of ||curl u||_p^p / p."""
    mesh = u.mesh
    rule = whitney.quadrature(4)
    vals = eval_field(u, rule)                          # (T, nq, 3)
    mag = np.linalg.norm(vals, axis=2)
    num = float(np.einsum("t,q,tq->", mesh.geometry.vols, rule.weights,
                          mag**p) ** (1.0 / p))
    vals *= np.power(mag, p - 2.0)[:, :, None]
    grad_num = edge_moments(mesh, rule, vals)[mesh.free_edges()]
    den = lp_norm_curl(u, p)
    grad_den = assemble_residual(u, 0.0, PExponent(p))
    return num / den, grad_num / num**p - grad_den / den**p


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


def default_smooth_pair(a=0.3, b=0.9):
    """Exponential-trigonometric fields with nonzero boundary traces.

    Frequencies are deliberately incommensurate with the box period: for
    periodic integrands the composite rules on a uniform mesh converge
    spectrally (all error terms cancel), which would hide the quadrature
    rate the residuals are meant to expose.
    """

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


def check_green_formulas(mesh: Mesh, pair: SmoothFieldPair, quad_order=4):
    """Residuals of the two Green identities under quadrature.

        div : (u, grad v) + (div u, v)  = surface integral of (n.u) v
        curl: (curl u, w) - (u, curl w) = surface integral of (n x u).w

    Both sides are integrated with rules of the given order; residuals
    shrink at the quadrature rate under refinement.
    """
    rule = whitney.quadrature(quad_order)
    xq = whitney.quad_points_physical(mesh, rule).reshape(-1, 3)
    wvol = np.repeat(mesh.geometry.vols[:, None], rule.weights.size, axis=1) \
        * rule.weights[None, :]
    wvol = wvol.ravel()

    def vol_int(values):
        return float(wvol @ values)

    faces, normals, areas = boundary_faces(mesh)
    tri_rule = whitney.triangle_quadrature(min(quad_order, 4))
    pv = mesh.vertices[faces]                           # (F, 3, 3)
    xs = np.einsum("qi,fix->fqx", tri_rule.points, pv).reshape(-1, 3)
    wsurf = (areas[:, None] * tri_rule.weights[None, :]).ravel()
    nrep = np.repeat(normals, tri_rule.weights.size, axis=0)

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
        ValueError: a face circulation above 1e-12, or a closure
            violation above 1e-10, times the largest coefficient (input
            not a gradient field).
    """
    mesh = u.mesh
    c = local_coeffs(u)                                 # along local lo -> hi
    # faces (0,1,2), (0,1,3), (0,2,3), (1,2,3) in LOCAL_EDGES numbering
    circ = c[:, [0, 0, 1, 3]] + c[:, [3, 4, 5, 5]] - c[:, [1, 2, 2, 4]]
    worst = float(np.abs(circ).max(initial=0.0))
    scale = float(np.abs(u.coeffs).max(initial=0.0))
    if worst > 1e-12 * scale:
        raise ValueError(
            f"field is not curl-free: max face circulation {worst:.3e} "
            f"against coefficient scale {scale:.3e}")

    lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
    phi = np.zeros(mesh.num_vertices)
    tree_edge = np.zeros(mesh.num_edges, dtype=bool)
    for eid, parent, child in mesh.bfs_tree():
        tree_edge[eid] = True
        # u_e = phi_hi - phi_lo; a level's parents are all set already
        step = np.where(child == hi[eid], u.coeffs[eid], -u.coeffs[eid])
        phi[child] = phi[parent] + step
    if np.count_nonzero(tree_edge) != mesh.num_vertices - 1:
        raise ValueError("mesh vertex graph is disconnected")

    closure = np.abs(phi[hi] - phi[lo] - u.coeffs)
    worst = float(closure[~tree_edge].max(initial=0.0))
    if worst > 1e-10 * scale:
        raise ValueError(
            f"closure violation {worst:.3e} on non-tree edges: "
            f"input is not a gradient field")
    phi -= phi.mean()
    return NodalField(mesh, phi)
