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

from dataclasses import dataclass

import numpy as np

from . import whitney
from .assembly import EdgeField, local_coeffs, tet_curls, tet_vertex_vectors

# Tets per block of `measure_error`: a block's (n, nq, 3) arrays are
# 2.75 MiB each. At 32^3, 4096 and 8192 time alike; 16384 is ~10% slower.
_BLOCK_TETS = 8192


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic solution/load pair for the power-law curl-curl problem.

    Invariants (all verified by tests): n x u* = 0 on the boundary of
    [0, pi]^3, div u* = 0, div S = 0.
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
    if p < 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
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
    """(||u_h - u*||_L2, ||curl u_h - curl u*||_Lp) by order-4 quadrature.

    One pass over blocks of _BLOCK_TETS tets: each block evaluates u_h,
    its curl, u* and curl u* at its own quadrature points and adds its
    volume-weighted sums in block order, so no (T, nq, 3) array is made
    and the peak memory does not grow with the mesh.
    """
    mesh = u_h.mesh
    geom = mesh.geometry
    rule = whitney.quadrature(4)
    sq_sum = lp_sum = 0.0
    for s in range(0, mesh.num_tets, _BLOCK_TETS):
        tets = slice(s, s + _BLOCK_TETS)
        vols = geom.vols[tets]
        local = local_coeffs(u_h, tets)
        xq = (rule.points @ mesh.vertices[mesh.tets[tets]]).reshape(-1, 3)
        err = rule.points @ tet_vertex_vectors(local, geom.grads[tets])
        err = err.reshape(-1, 3)
        err -= np.asarray(case.u_exact(xq))
        sq_sum += _weighted_sum(err, vols, rule.weights, 2.0)
        del err                        # freed before curl u* is evaluated
        cerr = np.asarray(case.curl_exact(xq)).reshape(vols.size, -1, 3)
        cerr -= tet_curls(local, geom.curls[tets])[:, None, :]
        lp_sum += _weighted_sum(cerr.reshape(-1, 3), vols, rule.weights, case.p)
    return float(np.sqrt(sq_sum)), float(lp_sum ** (1.0 / case.p))


def _weighted_sum(diff, vols, weights, p):
    """Quadrature sum of |diff|^p over a block of tets.

    `diff` (n * nq, 3) holds the values at the nq points of each of the n
    tets, `vols` (n,) their volumes and `weights` (nq,) the rule's.
    """
    x, y, z = diff.T
    sq = (x * x + y * y + z * z).reshape(vols.size, -1)
    return float(vols @ (sq ** (0.5 * p) @ weights))
