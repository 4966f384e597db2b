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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

SparseMatrix = sp.csr_array


class SolverError(RuntimeError):
    """A solve that did not converge: a Krylov stall, line search or Newton."""


@dataclass
class LinearSolveReport:
    iterations: int
    relative_residual: float
    converged: bool


def cg(A, b, tol=1e-10, max_iter=None, diag=None):
    """Conjugate gradients for SPD (or consistent SPSD) systems.

    Starts from x = 0 and terminates when ||Ax - b|| <= tol * ||b||.
    Non-convergence within `max_iter` is reported via the flag, never
    silently. `diag`, when given, is a positive vector d and the iteration
    is preconditioned by D^-1 (Jacobi); the stopping test stays on the
    unpreconditioned residual. Without `diag` the plain recurrence runs
    unchanged.
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
    for k in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rho / (p @ Ap)
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
        if res <= tol * bnorm:
            return x, LinearSolveReport(k, res / bnorm, True)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x, LinearSolveReport(max_iter, res / bnorm, False)
