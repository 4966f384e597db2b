"""Manufactured solutions on [0, pi]^3 and error measurement.

One solution family is reused for every exponent so that convergence
studies isolate the p-dependence: u* = (0, 0, sin x sin y), which is
divergence-free, has zero tangential trace on the box boundary and a
closed-form curl. The matching load curl(|curl u*|^(p-2) curl u*) stays a
z-directed field whose single component is differentiated by hand below;
the derivation is cross-checked in the tests by central finite
differences of the flux.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# _BLOCK_TETS: tets per block of `measure_error`, the block map of
# `assembly.lp_norm_field`
from .assembly import (_BLOCK_TETS, EdgeField, PExponent, _norm_power,
                       local_coeffs, tet_curls, tet_vertex_vectors)
from .whitney import TET_RULE

# Tets per chunk of a block's pointwise work: a chunk's (n, nq, 3)
# temporaries are 0.66 MiB each.
_CHUNK_TETS = 2048

# Most threads `measure_error` runs: a running block holds 8 MiB (traced),
# and 2 workers are the count measured (2 cores, 32^3: 0.42 -> 0.23 s).
_MAX_WORKERS = 2


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic solution/load pair for the power-law curl-curl problem.

    Invariants (all verified by tests): n x u* = 0 on the boundary of
    [0, pi]^3, div u* = 0, div S = 0.

    `measure_error` calls u_exact and curl_exact from several threads at
    once, so they must be thread-safe: pure functions of x.
    """

    name: str
    p: float
    u_exact: callable                # (N,3) -> (N,3)
    curl_exact: callable             # (N,3) -> (N,3)
    load: callable                   # (N,3) -> (N,3)
    notes: str = ""


def _u_exact(x):
    out = np.zeros_like(x)
    out[:, 2] = np.sin(x[:, 0]) * np.sin(x[:, 1])
    return out


def _curl_exact(x):
    out = np.zeros_like(x)
    out[:, 0] = np.sin(x[:, 0]) * np.cos(x[:, 1])
    out[:, 1] = -np.cos(x[:, 0]) * np.sin(x[:, 1])
    return out


def case_p2_sine():
    """p = 2 case: load is curl curl u* = (0, 0, 2 sin x sin y)."""

    def load(x):
        out = np.zeros_like(x)
        out[:, 2] = 2.0 * np.sin(x[:, 0]) * np.sin(x[:, 1])
        return out

    return ManufacturedCase(name="p2_sine", p=2.0, u_exact=_u_exact,
                            curl_exact=_curl_exact, load=load)


def case_general_p(p):
    """Same u* with load curl(|curl u*|^(p-2) curl u*) for p >= 2.

    With g = curl u* and m = |g|^2 = sin^2(x) cos^2(y) + cos^2(x) sin^2(y),
    the load is z-directed:

        S3 = s m^(s-1) (m_x g2 - m_y g1) + 2 m^s sin x sin y,  s = (p-2)/2,

    where m_x = sin 2x cos 2y and m_y = sin 2y cos 2x. For 2 < p < 4 the
    leading factor is a 0 * infinity limit on the zero set of m; the limit
    is 0 there (both pieces vanish like powers of sqrt(m)), which the
    evaluation below takes explicitly.
    """
    p = float(p)
    PExponent(p)                    # ValueError unless 2 <= p < inf
    if p == 2.0:
        return case_p2_sine()
    s = 0.5 * (p - 2.0)

    def load(x):
        sx, cx = np.sin(x[:, 0]), np.cos(x[:, 0])
        sy, cy = np.sin(x[:, 1]), np.cos(x[:, 1])
        m = (sx * cy)**2 + (cx * sy)**2
        g1 = sx * cy
        g2 = -cx * sy
        mx = np.sin(2 * x[:, 0]) * np.cos(2 * x[:, 1])
        my = np.sin(2 * x[:, 1]) * np.cos(2 * x[:, 0])
        out = np.zeros_like(x)
        pos = m > 0.0
        term1 = np.zeros_like(m)
        term1[pos] = s * np.power(m[pos], s - 1.0) * (mx[pos] * g2[pos]
                                                      - my[pos] * g1[pos])
        out[:, 2] = term1 + 2.0 * np.power(m, s) * sx * sy
        return out

    return ManufacturedCase(name=f"general_p{p:g}", p=p, u_exact=_u_exact,
                            curl_exact=_curl_exact, load=load,
                            notes="flux is C^1 for p >= 3; for 2 < p < 3 its "
                                  "derivative is unbounded on the zero set of "
                                  "the curl (handled by the explicit limit)")


def measure_error(u_h: EdgeField, case: ManufacturedCase):
    """(||u_h - u*||_L2, ||curl u_h - curl u*||_Lp) by `TET_RULE` quadrature.

    The tets are split into blocks of _BLOCK_TETS: each block evaluates
    u_h, its curl, u* and curl u* at its own quadrature points and
    returns its volume-weighted sums, so no (T, nq, 3) array is made.
    The blocks run on a thread pool of one worker per CPU the process
    may use, at most _MAX_WORKERS and at most one per block (numpy
    releases the GIL in the ufuncs and contractions a block spends its
    time in), and their sums are added in block order: the result has
    the same bits for any worker count. Only the running blocks hold
    arrays, about 8 MiB each, so the traced peak is about 8 MiB times
    the worker count for any mesh size. A mesh of one block runs inline.
    `case.u_exact` and `case.curl_exact` are called from the workers
    concurrently and must be thread-safe.
    """
    mesh = u_h.mesh
    mesh.geometry                   # built here, not by each worker at once
    blocks = [slice(s, s + _BLOCK_TETS)
              for s in range(0, mesh.num_tets, _BLOCK_TETS)]
    args = (u_h, case)
    workers = min(_worker_count(), len(blocks))
    if workers < 2:
        sums = [_block_sums(*args, tets) for tets in blocks]
    else:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(_block_sums, *args, tets) for tets in blocks]
            try:
                sums = [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    sq_sum = lp_sum = 0.0
    for sq, lp in sums:
        sq_sum += sq
        lp_sum += lp
    return float(np.sqrt(sq_sum)), float(lp_sum ** (1.0 / case.p))


def _worker_count():
    """Threads for `measure_error`: the CPUs this process may run on, at
    most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _block_sums(u_h, case, tets):
    """`measure_error`'s sums of |u_h - u*|^2 and |curl(u_h - u*)|^p
    over the tets `tets` (a slice).

    The block's arrays (its points, the differences at them and their
    powers) are allocated at its start and filled _CHUNK_TETS tets at a
    time, so a worker holds nearly the same memory from the start of a
    block to its end: the peak over all workers does not depend on how
    their steps interleave. Only the sums over q and t run over the
    whole block, which keeps their bits independent of the chunking.
    """
    mesh = u_h.mesh
    geom = mesh.geometry
    vols = geom.vols[tets]
    n, nq = vols.size, TET_RULE.weights.size
    local = local_coeffs(u_h, tets)
    corners, grads = mesh.tets[tets], geom.grads[tets]
    curls = tet_curls(local, geom.curls[tets])
    xq = np.empty((n, nq, 3))
    diff = np.empty((n, nq, 3))
    powers = np.empty((n, nq))
    chunks = [slice(s, s + _CHUNK_TETS) for s in range(0, n, _CHUNK_TETS)]
    for c in chunks:
        np.matmul(TET_RULE.points, mesh.vertices[corners[c]], out=xq[c])
        np.matmul(TET_RULE.points, tet_vertex_vectors(local[c], grads[c]),
                  out=diff[c])
        diff[c] -= _at_points(case.u_exact, xq[c])
        powers[c] = _norm_power(diff[c], 2.0)
    sq = float(vols @ (powers @ TET_RULE.weights))
    for c in chunks:
        diff[c] = _at_points(case.curl_exact, xq[c])
        diff[c] -= curls[c, None, :]
        powers[c] = _norm_power(diff[c], case.p)
    return sq, float(vols @ (powers @ TET_RULE.weights))


def _at_points(f, x):
    """An analytic field f at the points x (..., 3), shaped like x."""
    return np.asarray(f(x.reshape(-1, 3))).reshape(x.shape)
