"""Orthonormal bases of sensor column spaces.

Projectors onto sensor column spaces are the workhorse of every objective
evaluation here. They are always built from an orthonormal factorization
(``P = V V^T``), never from the normal-equations inverse ``M (M^T M)^-1 M^T``:
the two agree algebraically, but the factorized route stays accurate when the
generating matrix is badly conditioned, e.g. a camera seen through a filter
that is nearly opaque at some wavelengths. :func:`orthonormal_columns` is the
package's only QR and the only place a rank is decided: sensor sets, filter
bases and every filtered camera are rank-checked by it, from the ``R`` of
the QR they need anyway. A ``SensorSet`` is factored once, when built.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import RankDeficient, ShapeMismatch


def orthonormal_columns(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """Orthonormal basis of the column space of a full-column-rank matrix.

    Uses a Householder QR factorization, which meets the re-orthogonalized
    Gram-Schmidt accuracy contract (``basis^T basis = I`` to machine
    precision) and is deterministic for a fixed input. A stack
    ``(..., n, k)`` gives the stack of bases, each bit for bit the basis of
    its member; one rank-deficient member raises :class:`RankDeficient` for
    the whole stack. Sensor responses, filter bases, filtered cameras and the
    optimizer's trial filters all take this one path.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] < m.shape[-1]:
        raise ShapeMismatch(f"expected a tall n x k matrix, got {m.shape}")
    q, r = np.linalg.qr(m)
    # The k x k R has the singular values of the n x k input, so the rank
    # check costs no SVD of the input itself. Each member is held to its own
    # threshold ``sigma_1 * n * eps * 1e3``; the 1e3 margin keeps measured
    # (noisy) sensor data from being declared full rank on the strength of
    # pure round-off.
    s = np.linalg.svd(r, compute_uv=False)
    # The singular values come sorted, so each member is tested on its
    # smallest alone (NaN fails); one matrix gives a NumPy scalar bool.
    tol = s[..., 0] * max(m.shape[-2:]) * np.finfo(np.float64).eps * 1e3
    full = s[..., -1] > tol
    if not (full if m.ndim == 2 else full.all()):
        raise RankDeficient(
            f"matrix of shape {m.shape} has numerical rank < {m.shape[-1]}"
        )
    return q
