"""Orthonormal bases of sensor column spaces.

Projectors onto sensor column spaces are the workhorse of every objective
evaluation here. They are always built from an orthonormal factorization
(``P = V V^T``), never from the normal-equations inverse ``M (M^T M)^-1 M^T``:
the two agree algebraically, but the factorized route stays accurate when the
generating matrix is badly conditioned, e.g. a camera seen through a filter
that is nearly opaque at some wavelengths. :func:`orthonormal_columns` is the
package's only QR, so every basis is rank-checked, by the threshold of
:func:`numerical_rank` here; a ``SensorSet`` is factored once, when built.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import RankDeficient, ShapeMismatch


def numerical_rank(matrix: NDArray[np.float64]) -> int | NDArray[np.intp]:
    """Rank from singular values with threshold ``sigma_1 * n * eps * 1e3``.

    The 1e3 safety margin keeps measured (noisy) sensor data from being
    declared full rank on the strength of pure round-off. An n x k matrix
    gives an int; a stack ``(..., n, k)`` gives the array of its ranks from
    one stacked SVD.
    """
    m = np.asarray(matrix, dtype=np.float64)
    ranks = _ranks(np.linalg.svd(m, compute_uv=False), m.shape)
    return int(ranks) if m.ndim == 2 else ranks


def _ranks(s: NDArray[np.float64], shape: tuple[int, ...]) -> NDArray[np.intp]:
    """Ranks of ``(..., n, k)`` matrices of ``shape`` from their singular
    values ``s`` ``(..., k)``, by :func:`numerical_rank`'s threshold."""
    # Each member against its own threshold; an all-zero member has rank 0.
    tol = s[..., :1] * max(shape[-2:]) * np.finfo(np.float64).eps * 1e3
    return (s > tol).sum(axis=-1)


def orthonormal_columns(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """Orthonormal basis of the column space of a full-column-rank matrix.

    Uses a Householder QR factorization, which meets the re-orthogonalized
    Gram-Schmidt accuracy contract (``basis^T basis = I`` to machine
    precision) and is deterministic for a fixed input. A stack
    ``(..., n, k)`` gives the stack of bases, each bit for bit the basis of
    its member; one rank-deficient member raises :class:`RankDeficient` for
    the whole stack. Sensor responses, filtered cameras and the optimizer's
    trial filters all take this one path.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] < m.shape[-1]:
        raise ShapeMismatch(f"expected a tall n x k matrix, got {m.shape}")
    q, r = np.linalg.qr(m)
    # The k x k R has the singular values of the n x k input, so the rank
    # check costs no SVD of the input itself.
    deficient = _ranks(np.linalg.svd(r, compute_uv=False), m.shape) < m.shape[-1]
    # One matrix gives a NumPy scalar bool, tested directly: .any() would add
    # a call on every evaluation of the value path.
    if deficient if m.ndim == 2 else deficient.any():
        raise RankDeficient(
            f"matrix of shape {m.shape} has numerical rank < {m.shape[-1]}"
        )
    return q
