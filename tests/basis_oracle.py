"""Reference definition of the lowest-order edge basis, for the tests.

`eval_basis` builds the full (T, nq, 6, 3) array of the six local edge
functions. No element kernel builds it: they contract through
`assembly.vertex_vectors` and its transpose `assembly.edge_moments`, and
the kernel tests compare them to this array. `whole_mesh_edge_moments`
is the moment formula over the whole mesh at once, the reference that
the streamed `assembly.edge_moments` must match bit for bit.
"""

import numpy as np

from pcurlcurl.mesh import LOCAL_EDGES


def eval_basis(geom, lam):
    """Evaluate the 6 local edge functions at barycentric points.

    Args:
        geom: CellGeometry for the mesh.
        lam: (4,) or (nq, 4) barycentric coordinates; must be nonnegative
            and sum to 1 within 1e-12.

    Returns:
        (T, nq, 6, 3) array (nq axis dropped if `lam` was a single point).
        Signs are NOT applied; entry [..., k, :] is W_ij for
        LOCAL_EDGES[k] = (i, j) in the tet's stored vertex order.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    if lam.shape[1] != 4 or np.any(lam < -1e-12) or \
            np.any(np.abs(lam.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("barycentric points must be >= 0 and sum to 1")
    T = geom.grads.shape[0]
    nq = lam.shape[0]
    out = np.empty((T, nq, 6, 3))
    for k, (i, j) in enumerate(LOCAL_EDGES):
        out[:, :, k, :] = (lam[None, :, i, None] * geom.grads[:, None, j, :]
                           - lam[None, :, j, None] * geom.grads[:, None, i, :])
    return out if nq > 1 else out[:, 0]


def whole_mesh_edge_moments(mesh, rule, values):
    """(F, W_e) over the free edges from F (T, nq, 3) at the points of
    `rule` on every tet, in one pass over whole-mesh arrays.

    With B_i = vol sum_q w_q lam_qi F_q, the moment against local edge
    (i, j) is B_i . grad(lam_j) - B_j . grad(lam_i); the (T, 6) per-tet
    terms are summed into the edges by one bincount in tet order.
    """
    geom = mesh.geometry
    B = (rule.weights * rule.points.T) @ values         # (T, 4, 3)
    B *= geom.vols[:, None, None]
    P = B @ geom.grads.transpose(0, 2, 1)               # P_ij = B_i . grad lam_j
    i, j = np.array(LOCAL_EDGES).T
    per_tet = P[:, i, j] - P[:, j, i]
    return np.bincount(mesh.tet_edges.ravel(), per_tet.ravel(),
                       mesh.num_edges)[mesh.free_edges()]
