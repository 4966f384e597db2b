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
from .assembly import EdgeField, curl_per_tet, eval_field


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


def measure_error(u_h: EdgeField, case: ManufacturedCase, quad_order=4):
    """(||u_h - u*||_L2, ||curl u_h - curl u*||_Lp) by quadrature."""
    mesh = u_h.mesh
    geom = mesh.geometry
    rule = whitney.quadrature(quad_order)
    xq = whitney.quad_points_physical(mesh, rule)

    vals = eval_field(u_h, rule)
    exact = np.asarray(case.u_exact(xq.reshape(-1, 3))).reshape(xq.shape)
    diff = np.linalg.norm(vals - exact, axis=2)
    l2 = np.sqrt(np.einsum("t,q,tq->", geom.vols, rule.weights, diff**2))

    g_h = curl_per_tet(u_h)                             # (T, 3), constant
    gex = np.asarray(case.curl_exact(xq.reshape(-1, 3))).reshape(xq.shape)
    cdiff = np.linalg.norm(g_h[:, None, :] - gex, axis=2)
    p = case.p
    curl_err = np.einsum("t,q,tq->", geom.vols, rule.weights, cdiff**p) ** (1.0 / p)
    return float(l2), float(curl_err)
