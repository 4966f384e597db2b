"""Sparse storage and deterministic Krylov solvers.

Sparse matrices are CSR (scipy backing store) and are treated as
immutable. Every block matrix over the edges is a refill of the mesh's
free x free pattern (`assembly.scatter_blocks`), and the gradient map
is built in canonical CSR directly. The CG loop for SPD systems
(optionally Jacobi-preconditioned) is written out here as a plain
single-threaded state machine so runs are reproducible bit-for-bit.

Values are float64: the power-law material weight spans many orders of
magnitude near degenerate points and leaves no headroom for float32.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

SparseMatrix = sp.csr_array


class SolverError(RuntimeError):
    """A solve that did not converge: a Krylov stall, line search or Newton."""


# Terms of the delayed Hestenes-Stiefel estimate behind cg's energy stop.
ENERGY_DELAY = 4


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool


def cg(A, b, tol=1e-10, max_iter=None, diag=None, energy_tol=None):
    """Conjugate gradients for SPD (or consistent SPSD) systems.

    Starts from x = 0 and terminates when ||Ax - b|| <= tol * ||b||.
    Non-convergence within `max_iter` is reported via the flag, never
    silently. `diag`, when given, is a positive vector d and the iteration
    is preconditioned by D^-1 (Jacobi); the stopping test stays on the
    unpreconditioned residual. Without `diag` the plain recurrence runs
    unchanged.

    `energy_tol` = eta, when given, also stops (converged) once the last
    d = ENERGY_DELAY terms alpha_j r_j.z_j sum to at most eta^2 times all
    of them. From x = 0 the terms of steps 1..k sum to
    ||x*||_A^2 - ||x* - x_k||_A^2, so the last d of them are
    ||x* - x_{k-d}||_A^2 - ||x* - x_k||_A^2: an estimate of the squared
    energy-norm error of x_{k-d}, tight once CG converges, while the
    returned x_k is closer still (Hestenes & Stiefel 1952; Strakos &
    Tichy, ETNA 13, 2002). The total estimates ||x*||_A^2. The residual
    test stays, so this stop only ends CG earlier; without it the loop
    runs unchanged.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    n = b.shape[0]
    dinv = None
    if diag is not None:
        d = np.asarray(diag, dtype=float)
        if d.shape != (n,) or not np.all(np.isfinite(d)) or np.any(d <= 0):
            raise ValueError("Jacobi diagonal must be positive and finite")
        dinv = 1.0 / d
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), LinearSolveReport(0, 0.0, True)

    x = np.zeros(n)
    r = b.copy()
    res = bnorm
    p = r.copy() if dinv is None else dinv * r
    rho = r @ p
    if energy_tol is not None:
        # the last ENERGY_DELAY terms alpha_j rho_j, and all of them summed
        window, energy_sq = deque(maxlen=ENERGY_DELAY), 0.0
        tol_sq = energy_tol * energy_tol
    for k in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rho / (p @ Ap)
        if energy_tol is not None:
            window.append(alpha * rho)
            energy_sq += window[-1]
        x += alpha * p
        r -= alpha * Ap
        if dinv is None:
            z = r
            rho_new = r @ r
            res = np.sqrt(rho_new)
        else:
            z = dinv * r
            rho_new = r @ z
            res = np.sqrt(r @ r)
        if res <= tol * bnorm or (
                energy_tol is not None and len(window) == ENERGY_DELAY
                and sum(window) <= tol_sq * energy_sq):
            return x, LinearSolveReport(k, res / bnorm, True)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x, LinearSolveReport(max_iter, res / bnorm, False)
