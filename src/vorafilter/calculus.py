"""Analytic gradient and Hessian of the filtered Vora-Value.

Everything here differentiates ``value(f) = trace(P{FQ} P{X}) / 3`` with
respect to the filter vector ``f``, where ``F = diag(f)``, ``Q`` holds the
camera sensitivities and ``P{X}`` projects onto the observer space.

Writing ``A = P{X}``, ``B = P{FQ}`` and ``C = F^-1``, the closed forms are

    grad(f)    = (2/3) * ediag(C B A (I - B))
    hessian(f) = (2/3) * [ -2 (CB) o ((I - 2B) A B C)
                           +  (CBC) o ((I - 2B) A)
                           -  (C B A B C) o I ]

with ``o`` the elementwise product. Both projectors have rank 3: ``B = W W^T``
with ``W`` the QR basis of ``F Q`` and ``A = V V^T`` with ``V`` the observer's
``SensorSet.basis``, built once with the set. Each call factors only
``F Q``, by :func:`vorafilter.vora._filtered_basis`, whose QR raises for a
filter that leaves it rank deficient or overflows it, in every consumer. With
``M = W^T V`` (3 x 3), ``R = W M`` and ``Z = V - 2R`` (so that
``(I - 2B) A (I - 2B) = Z Z^T``), row ``i`` of each gives

    grad_i           = (2/3) r_i . (v_i - r_i) / f_i
    hessian + alpha I = diag(d) + U U^T,   d_i = alpha - (2/3) |r_i|^2 / f_i^2,
                                           U   = sqrt(2/3) (W (x) Z) / f

where ``(x)`` is the row-wise Kronecker product, so ``U`` is n x 9. ``R``
is computed once per filter and shared by whichever of ``g``, ``d`` and
``U`` a caller needs. Every derivative consumer works from these factors: a
gradient costs O(n), the paper's regularized Newton step
(:func:`newton_step`, ``(H + alpha I) s = -(g + alpha f)``) O(81 n) by
Sherman-Morrison-Woodbury with a 9 x 9 capacitance matrix, and each product
with the operator in the optimizer's trust-region solve O(9 n). The public
:func:`hessian` is ``diag(d) + U U^T`` formed densely, symmetric by
construction; apart from it, an n x n matrix is formed only by the dense
fallback taken when a Woodbury solve's residual is not small. A filter entry
whose square underflows can leave ``d`` non-finite: the public Hessian and
Newton calls then raise ``ValueError``. The Hadamard form above is the test
suite's oracle for these factors. Every derivative here, analytic or central
difference, is returned as a plain, freshly allocated ndarray.

The central-difference oracle :func:`fd_gradient`, with :func:`fd_hessian`
its name for differencing a gradient, is provided so every closed form can be
verified independently; it is the acceptance authority for both derivative
orders, at the one step ``FD_STEP``. It calls its function on stacks of the
probes ``f +- h e_i``, ``FD_BLOCK_BYTES`` of them at most per call;
:func:`gradient` and :func:`~vorafilter.vora.filtered_vora_value` take such
stacks, checked once and factored in one stacked QR, and return each row's
per-filter result bit for bit. The optimizer (:mod:`vorafilter.optimize`)
builds its models from the gradient and Hessian factors here, on the one
basis ``W`` it values each filter with, and has no closed form of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import BadBasisSpec, RankDeficient, SingularSystem, StepTooLarge
from .projectors import orthonormal_columns
from .spectral import (FilterSpectrum, SensorSet, WavelengthGrid, _filter_values,
                       _is_integer, _require_same_grid, _single_filter_values)
from .vora import _filtered_basis

# A Woodbury Newton solve whose normwise backward error exceeds this, or is
# not finite, is redone densely. Measured errors are ~1e-15.
WOODBURY_BACKWARD_TOL = 1e-10

# Central-difference step of both oracles, about eps^(1/3): it balances
# truncation against round-off for unit-scale filters (Nocedal & Wright,
# Numerical Optimization, 2nd ed., section 8.1).
FD_STEP = 1e-5
# Probe bytes per call of the function under difference, a pair being 2n
# floats: bounds the probe stack and the function's work on it, whatever n
# is. Every pair of an n <= 128 point fits in one call.
FD_BLOCK_BYTES = 256 * 2**10

BASIS_KINDS = ("cosine", "gaussian")


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Columns spanning the subspace in which a smooth filter is expressed."""

    grid: WavelengthGrid
    basis: NDArray[np.float64]

    def __post_init__(self) -> None:
        arr = np.array(self.basis, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != self.grid.count:
            raise ValueError(
                f"basis must be {self.grid.count} x k, got {arr.shape}"
            )
        if not (1 <= arr.shape[1] <= self.grid.count):
            raise BadBasisSpec(f"basis size k={arr.shape[1]} outside [1, n]")
        if not np.all(np.isfinite(arr)):
            raise ValueError("basis must be finite")
        try:
            orthonormal_columns(arr)
        except RankDeficient:
            raise BadBasisSpec("basis columns are not linearly independent") from None
        arr.setflags(write=False)
        object.__setattr__(self, "basis", arr)

    @property
    def size(self) -> int:
        return int(self.basis.shape[1])


def make_basis(kind: str, k: int, grid: WavelengthGrid) -> BasisSet:
    """Construct a named basis family.

    cosine    column j samples cos(pi * j * (i + 1/2) / n); j = 0 is constant
    gaussian  k bumps, centers evenly spaced over the grid, sigma = span / k
    """
    if kind not in BASIS_KINDS:
        raise BadBasisSpec(f"unknown basis kind {kind!r}; choose from {BASIS_KINDS}")
    n = grid.count
    if not _is_integer(k) or not 1 <= k <= n:
        raise BadBasisSpec(f"basis size k={k!r} must be an integer in [1, {n}]")
    if kind == "cosine":
        i = np.arange(n, dtype=np.float64)
        cols = np.column_stack(
            [np.cos(np.pi * j * (i + 0.5) / n) for j in range(k)]
        )
    else:
        lam = grid.wavelengths
        centers = np.linspace(grid.start_nm, grid.end_nm, k)
        sigma = (grid.end_nm - grid.start_nm) / k
        cols = np.column_stack(
            [np.exp(-0.5 * ((lam - c) / sigma) ** 2) for c in centers]
        )
    return BasisSet(grid=grid, basis=cols)


def _projected_observer(w: NDArray[np.float64],
                        v: NDArray[np.float64]) -> NDArray[np.float64]:
    """``R = W (W^T V)``, the observer's basis projected onto the span of
    ``W``: the one O(n) product every derivative here is built from. Stacks
    ``(..., n, 3)`` of ``W`` give the stack of projections."""
    return w @ (w.swapaxes(-1, -2) @ v)


def _hessian_diagonal(r: NDArray[np.float64], f: NDArray[np.float64],
                      alpha: float) -> NDArray[np.float64]:
    """``d`` of ``H + alpha I = diag(d) + U U^T``, from ``R``."""
    return alpha - (2.0 / 3.0) * np.einsum("ij,ij->i", r, r) / (f * f)


def _hessian_factors(w: NDArray[np.float64], v: NDArray[np.float64],
                     r: NDArray[np.float64], f: NDArray[np.float64],
                     alpha: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``(d, U)`` with ``H + alpha I = diag(d) + U U^T``; ``U`` is n x 9 and
    ``r`` is :func:`_projected_observer` of ``w`` and ``v``."""
    z = v - 2.0 * r
    u = (w[:, :, None] * z[:, None, :]).reshape(f.size, 9)
    u *= (np.sqrt(2.0 / 3.0) / f)[:, None]
    return _hessian_diagonal(r, f, alpha), u


def _basis_hessian(d: NDArray[np.float64], u: NDArray[np.float64],
                   basis: NDArray[np.float64]) -> NDArray[np.float64]:
    """``B^T (diag(d) + U U^T) B``, k x k, without the n x n operator."""
    bu = basis.T @ u
    return (basis.T * d) @ basis + bu @ bu.T


def _dense_operator(d: NDArray[np.float64], u: NDArray[np.float64]) -> NDArray[np.float64]:
    """``diag(d) + U U^T`` as an n x n matrix, symmetric by construction."""
    dense = u @ u.T
    dense[np.diag_indices_from(dense)] += d
    return dense


def _capacitance(d: NDArray[np.float64],
                 u: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``D^-1 U`` and the k x k capacitance ``I + U^T D^-1 U`` of
    ``diag(d) + U U^T``, the system :func:`_woodbury` solves."""
    du = u / d[:, None]
    return du, np.eye(u.shape[1]) + u.T @ du


def _woodbury(d: NDArray[np.float64], u: NDArray[np.float64], du: NDArray[np.float64],
              capacitance: NDArray[np.float64],
              rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """``(diag(d) + U U^T)^-1 rhs`` by Sherman-Morrison-Woodbury, from
    :func:`_capacitance`'s ``du`` and ``capacitance``, in O(k^2 n); unchecked.
    Raises ``LinAlgError`` when the capacitance is singular."""
    db = rhs / d
    return db - du @ np.linalg.solve(capacitance, u.T @ db)


def _woodbury_solve(d: NDArray[np.float64], u: NDArray[np.float64],
                    rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve ``(diag(d) + U U^T) x = rhs`` by :func:`_woodbury`.

    The O(n k) residual decides whether to trust the result; if it is not
    finite or its normwise backward error exceeds ``WOODBURY_BACKWARD_TOL``
    (say ``d`` has a zero), the same operator is solved densely. Raises
    ``LinAlgError`` when that dense system is singular.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        du, capacitance = _capacitance(d, u)
        try:
            x = _woodbury(d, u, du, capacitance, rhs)
        except np.linalg.LinAlgError:
            x = None
        if x is not None:
            resid = np.linalg.norm(d * x + u @ (u.T @ x) - rhs)
            # max|d| + ||U||_F^2 bounds ||diag(d) + U U^T||_2 from above.
            op_norm = np.abs(d).max() + np.vdot(u, u)
            if resid <= WOODBURY_BACKWARD_TOL * (op_norm * np.linalg.norm(x)
                                                 + np.linalg.norm(rhs)):
                return x
    return np.linalg.solve(_dense_operator(d, u), rhs)


def _gradient(r: NDArray[np.float64], v: NDArray[np.float64],
              f: NDArray[np.float64]) -> NDArray[np.float64]:
    """The gradient from :func:`_projected_observer` ``R`` of the bases of
    ``diag(f) Q`` and of the observer, and the observer's basis ``V``, in
    O(n); stacks ``(..., n, 3)`` and ``(..., n)`` too."""
    return (2.0 / 3.0) * np.einsum("...ij,...ij->...i", r, v - r) / f


def _checked_factors(camera: SensorSet, observer: SensorSet, f: NDArray[np.float64],
                     alpha: float) -> tuple[NDArray[np.float64], ...]:
    """``R`` and the factors ``(d, U)`` of ``H + alpha I`` at a checked
    filter, for the public calls. An entry below about 1e-160 underflows its
    square and can leave ``d`` at 0/0: that raises ``ValueError``, with no
    floating-point warning. The optimizer builds its factors unchecked."""
    w, v = _filtered_basis(camera, f), observer.basis
    r = _projected_observer(w, v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d, u = _hessian_factors(w, v, r, f, alpha)
    if not (np.isfinite(d).all() and np.isfinite(u).all()):
        raise ValueError("hessian entries must be finite")
    return r, d, u


def _basis_filter(basis: BasisSet, coeffs: NDArray[np.float64]) -> NDArray[np.float64]:
    """The filter ``f = B c``, which must be finite and strictly positive."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape != (basis.size,):
        raise ValueError(f"coeffs must have length {basis.size}, got {c.shape}")
    return _filter_values(basis.basis @ c)


def gradient(camera: SensorSet, observer: SensorSet,
             filt: FilterSpectrum | NDArray[np.float64]) -> NDArray[np.float64]:
    """Analytic gradient of the filtered Vora-Value at ``filt``, an n-vector.

    ``filt`` may also be an (m, n) array of transmittances, one filter per
    row, each checked as :class:`FilterSpectrum` checks one (its box aside).
    The result is then the (m, n) array of their gradients, row ``i`` bit
    for bit the gradient of row ``i`` evaluated alone, from one stacked QR.
    """
    _require_same_grid(camera.grid, observer.grid)
    f = _filter_values(filt, camera.grid)
    w, v = _filtered_basis(camera, f), observer.basis
    values = _gradient(_projected_observer(w, v), v, f)
    if not np.all(np.isfinite(values)):
        raise ValueError("gradient entries must be finite")
    return values


def gradient_in_basis(camera: SensorSet, observer: SensorSet,
                      basis: BasisSet, coeffs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Chain-rule gradient w.r.t. basis coefficients ``c``, where ``f = B c``."""
    _require_same_grid(camera.grid, observer.grid, basis.grid)
    f = _basis_filter(basis, coeffs)
    w, v = _filtered_basis(camera, f), observer.basis
    return basis.basis.T @ _gradient(_projected_observer(w, v), v, f)


def hessian(camera: SensorSet, observer: SensorSet, filt: FilterSpectrum,
            alpha: float = 0.0) -> NDArray[np.float64]:
    """Analytic Hessian of the filtered Vora-Value, plus ``alpha * I``: an
    n x n array.

    With ``alpha = 0`` this is the plain second derivative, which the Newton
    optimizer models with; a positive ``alpha`` gives the regularized system
    that :func:`newton_step` solves. The matrix is ``diag(d) + U U^T`` from
    the factors that :func:`newton_step`, :func:`hessian_in_basis` and the
    optimizer use, so it is symmetric by construction. Non-finite entries
    raise ``ValueError``.
    """
    if not 0.0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and nonnegative")
    _require_same_grid(camera.grid, observer.grid)
    f = _single_filter_values(filt, camera.grid)
    matrix = _dense_operator(*_checked_factors(camera, observer, f, alpha)[1:])
    if not np.all(np.isfinite(matrix)):
        raise ValueError("hessian entries must be finite")
    return matrix


def hessian_in_basis(camera: SensorSet, observer: SensorSet, basis: BasisSet,
                     coeffs: NDArray[np.float64], alpha: float = 0.0) -> NDArray[np.float64]:
    """Hessian w.r.t. basis coefficients: ``B^T (H + alpha I) B``, built
    from the factored operator in O(n k^2) without an n x n matrix."""
    if not 0.0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and nonnegative")
    _require_same_grid(camera.grid, observer.grid, basis.grid)
    f = _basis_filter(basis, coeffs)
    return _basis_hessian(*_checked_factors(camera, observer, f, alpha)[1:], basis.basis)


def newton_step(camera: SensorSet, observer: SensorSet, filt: FilterSpectrum,
                alpha: float) -> NDArray[np.float64]:
    """The paper's regularized Newton step ``-(H + alpha I)^-1 (g + alpha f)``.

    ``H + alpha I`` is a diagonal plus a rank-9 term, so the step is solved by
    Sherman-Morrison-Woodbury in O(81 n) time and O(n) memory; no n x n
    matrix or inverse is formed unless the residual check sends the solve to
    its dense fallback. ``alpha`` must be positive: without regularization
    the step degenerates to the current filter. Raises
    :class:`SingularSystem` when the system is singular, and ``ValueError``
    when it is not finite.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite for a Newton step")
    _require_same_grid(camera.grid, observer.grid)
    f = _single_filter_values(filt, camera.grid)
    r, d, u = _checked_factors(camera, observer, f, alpha)
    try:
        return _woodbury_solve(d, u, -(_gradient(r, observer.basis, f) + alpha * f))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Newton system is singular (alpha={alpha:g})") from exc


def fd_gradient(objective: Callable[[NDArray[np.float64]], NDArray[np.float64]],
                filt: FilterSpectrum | NDArray[np.float64],
                h: float = FD_STEP) -> NDArray[np.float64]:
    """Central-difference gradient of ``objective`` at a filter point.

    Entry ``(..., i)`` of the result is
    ``(objective(f + h e_i) - objective(f - h e_i)) / 2h``, where
    ``objective`` maps an (m, n) stack of filters to their m values (or to m
    rows of any shape, as :func:`fd_hessian` uses it). With the public
    :func:`~vorafilter.vora.filtered_vora_value`, which takes such stacks,
    that is ``lambda p: filtered_vora_value(camera, observer, p)``; a
    per-filter objective ``obj`` fits as
    ``lambda p: np.array([obj(row) for row in p])``. The coordinates are
    taken in consecutive blocks of ``max(1, FD_BLOCK_BYTES // 16n)`` pairs,
    one block for n <= 128: for a block of ``m`` coordinates ``objective``
    is called once, on the (2m, n) stack of the probes ``f + h e_i`` (rows
    0..m-1) and ``f - h e_i`` (rows m..2m-1). Before ``objective`` is
    called, a point that is not finite or an ``h`` that is not positive and
    finite raises ``ValueError``, a point that is not strictly positive
    :class:`~vorafilter.errors.NonPositiveFilter`, and one with
    ``min(f) <= h`` :class:`~vorafilter.errors.StepTooLarge`.

    Independent of every closed form in this module; used to verify them.
    """
    if not 0.0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    f = _filter_values(filt)
    if float(f.min()) - h <= 0.0:
        raise StepTooLarge(f"step {h:g} leaves the positive region at min(f)={f.min():g}")
    n = f.size
    block = max(1, FD_BLOCK_BYTES // (16 * n))
    columns = []
    for start in range(0, n, block):
        step = h * np.eye(min(block, n - start), n, start)
        m = len(step)
        out = np.asarray(objective(np.concatenate([f + step, f - step])))
        if out.shape[:1] != (2 * m,):
            raise ValueError(f"objective must map the ({2 * m}, {n}) probe stack to "
                             f"{2 * m} rows, got shape {out.shape}")
        columns.append((out[:m] - out[m:]) / (2.0 * h))
    return np.moveaxis(np.concatenate(columns), 0, -1)


def fd_hessian(gradient_fn: Callable[[NDArray[np.float64]], NDArray[np.float64]],
               filt: FilterSpectrum | NDArray[np.float64],
               h: float = FD_STEP) -> NDArray[np.float64]:
    """:func:`fd_gradient` of a gradient function: the central-difference
    Jacobian, whose entry ``(j, i)`` is the difference of gradient entry
    ``j`` along ``e_i``. ``gradient_fn`` maps an (m, n) stack of filters to
    their (m, n) gradients; the stacked public :func:`gradient` fits as
    ``lambda p: gradient(camera, observer, p)``.
    """
    return fd_gradient(gradient_fn, filt, h)
