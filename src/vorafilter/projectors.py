"""Orthonormal bases of sensor column spaces.

Projectors onto sensor column spaces are the workhorse of every objective
evaluation here. They are always built from an orthonormal factorization
(``P = V V^T``), never from the normal-equations inverse ``M (M^T M)^-1 M^T``:
the two agree algebraically, but the factorized route stays accurate when the
generating matrix is badly conditioned, e.g. a camera seen through a filter
that is nearly opaque at some wavelengths. :func:`orthonormal_columns` is the
package's only QR and the only place that decides a matrix has no usable
basis: sensor sets, filter bases and every filtered camera are checked by
it, from the ``R`` of the QR they need anyway. A cheap lower bound on
``R``'s condition, from its diagonal and Frobenius norm, clears the
well-conditioned matrices; only the ones it cannot clear pay for an SVD of
``R``, or raise when that ``R`` overflowed. A ``SensorSet`` is factored
once, when built. :func:`_finite_result` is the package's floating-point rule.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, TypeVar

import numpy as np
from numpy.typing import NDArray

from .errors import RankDeficient, VoraFilterError

_FLOAT = np.finfo(np.float64)
_Call = TypeVar("_Call", bound=Callable)


def _finite_result(call: _Call) -> _Call:
    """The public calls' one floating-point rule: no floating-point warning,
    from an ``np.errstate`` of each call's own (so nested and concurrent calls
    restore their caller's), and ``ValueError`` for a non-finite array result."""
    @functools.wraps(call)
    def checked(*args, **kwargs):
        with np.errstate(all="ignore"):
            result = call(*args, **kwargs)
        if isinstance(result, np.ndarray) and not np.isfinite(result).all():
            raise ValueError(f"{call.__name__} entries must be finite")
        return result
    return checked


def _needs_svd(r: NDArray[np.float64], tol: float) -> bool | NDArray[np.bool_]:
    """Which of the k x k triangular ``r`` the condition bound cannot clear.

    With ``s_1 >= ... >= s_k`` the singular values of ``r``,
    ``|det r| = s_1 ... s_k``, AM-GM on ``s_1^2, ..., s_(k-1)^2`` and
    ``s_1 <= |r|_F`` give ``s_k / s_1 >= (k - 1)^((k - 1) / 2) |det r| / |r|_F^k``,
    and ``det r`` is the product of the diagonal (Golub & Van Loan, Matrix
    Computations, 4th ed., 2.4). A member is cleared when that bound reaches
    ``2 tol``; the factor 2 covers the rounding of the bound and of the SVD
    it replaces, so the rank decision is the SVD's. The bound is a product of
    ``|r_11| / |r|_F`` and ``sqrt(k - 1) |r_ii| / |r|_F`` for ``i > 1``,
    formed only for ``|r|_F^2`` finite and normal, and must come out finite:
    an overflowed, underflowed or NaN member is not cleared. One matrix gives
    a bool, a stack a mask over its members.
    """
    k = r.shape[-1]
    root = math.sqrt(k - 1) if k > 1 else 1.0
    if r.ndim == 2:
        # Python floats, with no array temporaries and no floating-point
        # warnings: on one 3 x 3 the array form costs more than the SVD.
        square = float(np.vdot(r, r))
        if not _FLOAT.tiny <= square <= _FLOAT.max:
            return True
        norm = math.sqrt(square)
        diag = r.diagonal().tolist()
        bound = abs(diag[0]) / norm * math.prod(root * abs(d) / norm for d in diag[1:])
        return not 2 * tol <= bound <= _FLOAT.max
    weights = np.full(k, root)
    weights[0] = 1.0
    with np.errstate(all="ignore"):
        square = np.einsum("...ij,...ij->...", r, r)
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        bound = (diag * (weights / np.sqrt(square)[..., None])).prod(axis=-1)
        cleared = ((square >= _FLOAT.tiny) & (square <= _FLOAT.max)
                   & (bound >= 2 * tol) & (bound <= _FLOAT.max))
    return ~cleared


def orthonormal_columns(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """Orthonormal basis of the column space of a tall, full-rank matrix.

    Uses a Householder QR factorization, which meets the re-orthogonalized
    Gram-Schmidt accuracy contract (``basis^T basis = I`` to machine
    precision) and is deterministic for a fixed input. A stack
    ``(..., n, k)`` gives the stack of bases, each bit for bit the basis of
    its member; one rank-deficient member raises :class:`RankDeficient` for
    the whole stack, one whose ``R`` overflowed :class:`VoraFilterError`.
    Sensor responses, filter bases, filtered cameras and the optimizer's
    trial filters all take this one path. The rank is read from the k x k
    ``R``: a bound on its condition from its diagonal and Frobenius norm
    clears well-conditioned members, and an SVD of ``R`` decides the rest.
    """
    m = np.asarray(matrix, dtype=np.float64)
    q, r = np.linalg.qr(m)
    # The k x k R has the singular values of the n x k input, so the rank
    # check costs no SVD of the input itself. Each member is held to its own
    # threshold ``sigma_1 * tol``; the 1e3 margin keeps measured (noisy)
    # sensor data from being declared full rank on the strength of pure
    # round-off.
    tol = max(m.shape[-2:]) * _FLOAT.eps * 1e3
    needs_svd = _needs_svd(r, tol)
    if needs_svd is False:  # one matrix, cleared
        return q
    doubtful = r[needs_svd]  # one matrix indexed by True is a stack of one
    if len(doubtful):
        # The bound never clears a non-finite R.
        if not np.isfinite(doubtful).all():
            raise VoraFilterError(f"matrix of shape {m.shape} overflows: "
                                  "its QR is not finite")
        # The singular values come sorted, so each member is tested on its
        # smallest alone.
        s = np.linalg.svd(doubtful, compute_uv=False)
        if not (s[:, -1] > s[:, 0] * tol).all():
            raise RankDeficient(
                f"matrix of shape {m.shape} has numerical rank < {m.shape[-1]}"
            )
    return q
