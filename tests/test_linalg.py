import numpy as np
import pytest
import scipy.sparse as sp

from pcurlcurl.linalg import cg


def tridiag_laplacian(n):
    return sp.diags_array(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1]).tocsr()


def test_matvec_matches_dense_reference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, m = rng.integers(2, 51, size=2)
        nnz = int(rng.integers(1, n * m + 1))
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, m, nnz)
        vals = rng.standard_normal(nnz)
        A = sp.coo_array((vals, (rows, cols)), shape=(int(n), int(m))).tocsr()
        dense = np.zeros((n, m))
        np.add.at(dense, (rows, cols), vals)
        x = rng.standard_normal(m)
        scale = max(np.abs(dense @ x).max(), 1.0)
        assert np.abs(A @ x - dense @ x).max() <= 1e-13 * scale


def test_cg_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = cg(sp.eye_array(3).tocsr(), b, tol=1e-12)
    assert rep.converged and rep.iterations == 1
    assert np.allclose(x, b)


def test_cg_diagonal():
    A = sp.diags_array(np.arange(1.0, 6.0)).tocsr()
    x, rep = cg(A, np.ones(5), tol=1e-13)
    assert rep.converged
    assert np.allclose(x, 1.0 / np.arange(1.0, 6.0), rtol=1e-12)


def test_cg_matches_gaussian_elimination_oracle():
    A = tridiag_laplacian(10)
    b = np.ones(10)
    x, rep = cg(A, b, tol=1e-14)
    oracle = np.linalg.solve(A.toarray(), b)
    assert rep.converged
    assert np.abs(x - oracle).max() < 1e-10


def test_cg_error_energy_norm_monotone():
    # the quantity CG drives down monotonically (in exact arithmetic) is
    # the A-norm of the error; the plain residual norm may oscillate
    A = tridiag_laplacian(10)
    Ad = A.toarray()
    b = np.ones(10)
    x_star = np.linalg.solve(Ad, b)
    errs = []
    x = np.zeros(10)
    for k in range(1, 11):
        x, _ = cg(A, b, tol=1e-16, max_iter=k)
        e = x - x_star
        errs.append(np.sqrt(e @ (Ad @ e)))
    for a, b_ in zip(errs, errs[1:]):
        assert b_ <= a * (1 + 1e-10)


def test_cg_nonconvergence_flagged():
    A = tridiag_laplacian(50)
    x, rep = cg(A, np.ones(50), tol=1e-14, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2


def test_cg_zero_rhs():
    A = tridiag_laplacian(4)
    x, rep = cg(A, np.zeros(4))
    assert rep.converged and rep.iterations == 0
    assert np.all(x == 0)


def test_cg_rejects_nonfinite():
    with pytest.raises(ValueError):
        cg(tridiag_laplacian(3), np.array([1.0, np.nan, 0.0]))


def _plain_cg_reference(A, b, tol, max_iter):
    # the plain CG recurrence written out as a reference; cg without a
    # Jacobi diagonal must reproduce it bit for bit
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    x = np.zeros(n)
    r = b - A @ x
    p = r.copy()
    rho = r @ r
    for k in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rho / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rho_new = r @ r
        if np.sqrt(rho_new) <= tol * bnorm:
            return x, k
        p = r + (rho_new / rho) * p
        rho = rho_new
    return x, max_iter


def _scaled_spd(n, seed):
    # SPD with a diagonal spanning four decades, where Jacobi pays off
    rng = np.random.default_rng(seed)
    s = 10.0 ** rng.uniform(-1, 1, n)
    L = tridiag_laplacian(n) + 0.1 * sp.eye_array(n)
    return (sp.diags_array(s) @ L @ sp.diags_array(s)).tocsr(), rng.standard_normal(n)


def test_cg_default_path_bit_identical_to_plain_recurrence():
    A, b = _scaled_spd(40, 3)
    for max_iter in (5, 40, 4000):
        x, rep = cg(A, b, tol=1e-12, max_iter=max_iter)
        ref, k = _plain_cg_reference(A, b, 1e-12, max_iter)
        assert rep.iterations == k
        assert np.array_equal(x, ref)


def test_cg_jacobi_matches_plain_solve():
    A, b = _scaled_spd(60, 4)
    x0, rep0 = cg(A, b, tol=1e-12, max_iter=20000)
    x1, rep1 = cg(A, b, tol=1e-12, max_iter=20000, diag=A.diagonal())
    oracle = np.linalg.solve(A.toarray(), b)
    assert rep0.converged and rep1.converged
    assert rep1.iterations < rep0.iterations
    assert np.linalg.norm(A @ x1 - b) <= 1e-10 * np.linalg.norm(b)
    scale = np.abs(oracle).max()
    assert np.abs(x1 - oracle).max() <= 1e-8 * scale
    assert np.abs(x1 - x0).max() <= 1e-8 * scale


def test_cg_jacobi_unconverged_reports_its_iterate():
    # a truncated preconditioned solve is flagged, and its reported
    # residual is that of the iterate it returns
    A, b = _scaled_spd(60, 5)
    for max_iter in range(1, 40):
        x, rep = cg(A, b, tol=1e-15, max_iter=max_iter, diag=A.diagonal())
        assert not rep.converged
        assert rep.iterations == max_iter
        true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert rep.relative_residual == pytest.approx(true, rel=1e-6)


@pytest.mark.parametrize("jacobi", [False, True])
def test_cg_energy_stop_bounds_the_energy_error(jacobi):
    # the energy stop ends CG once its delayed estimate of the A-norm
    # error is eta of the solution's A-norm: checked against the dense
    # solution, and against the residual-only run of the same system
    A, b = _scaled_spd(60, 6)
    Ad = A.toarray()
    diag = A.diagonal() if jacobi else None
    x_star = np.linalg.solve(Ad, b)
    x_norm = np.sqrt(x_star @ (Ad @ x_star))
    _, rep_res = cg(A, b, tol=1e-12, max_iter=20000, diag=diag)
    counts = []
    for eta in (1e-6, 1e-4, 1e-2):
        x, rep = cg(A, b, tol=1e-12, max_iter=20000, diag=diag,
                    energy_tol=eta)
        e = x - x_star
        assert rep.converged
        assert np.sqrt(e @ (Ad @ e)) <= 10.0 * eta * x_norm
        assert rep.iterations <= rep_res.iterations
        counts.append(rep.iterations)
    assert counts[0] > counts[1] > counts[2]


def test_cg_rejects_bad_jacobi_diagonal():
    A = tridiag_laplacian(4)
    for d in (np.zeros(4), np.array([1.0, -1.0, 1.0, 1.0]),
              np.array([1.0, np.inf, 1.0, 1.0]), np.ones(3)):
        with pytest.raises(ValueError):
            cg(A, np.ones(4), diag=d)
