"""Reference definition of the lowest-order edge basis, for the tests.

`eval_basis` builds the full (T, nq, 6, 3) array of the six local edge
functions. No element kernel builds it: they contract through
`assembly.vertex_vectors` and its transpose `assembly.edge_moments`, and
the kernel tests compare them to this array.
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
