"""Filter optimization: projected gradient ascent and Newton, in one trust region.

Both methods maximize the filtered Vora-Value over the box
``[tau_min, tau_max]^n``. The value is invariant to scaling the filter, so
a run depends on its box only through ``floor = tau_min / tau_max``: it
runs at unit peak, in ``[floor, 1]^n``, and only its report (the filter,
clipped into the box, the coefficients and ``mu``) scales by ``tau_max``;
the trace's ``step`` and ``gradnorm`` and the ``tol_grad`` test measure the
unit-peak run. It keeps one iterate ``x``, the filter or its coefficients in
a smoothness basis, and a gauge scales each trial to peak 1: clipped into
the box for a filter, rejected for coefficients whose filter leaves it. The
closed forms it models with are in :mod:`vorafilter.calculus`.

They are one trust-region iteration (Steihaug 1983; Conn, Gould & Toint
2000) and differ only in the model. The value's Hessian is
``H = diag(d) + U U^T`` with ``U`` of rank at most 9 (see
:mod:`vorafilter.calculus`): ``newton`` models with ``H``, and ``grad`` with
a diagonal, a projected gradient ascent scaled by it. That diagonal is
``sigma D``, with ``D = |d|`` floored as in the CG preconditioner and
``sigma = s.y / s.D s`` the Barzilai-Borwein scalar (Barzilai & Borwein
1988) of the last step ``s`` and gradient change ``y``, both in filter
space. It is ``diag(d)`` where ``sigma`` is not negative, as at the first
iteration. A step on the ``sigma D`` model first tries the largest radius.
From the unit filter with :func:`~vorafilter.gaussian_camera`, ``grad``
takes 106-149 steps at n = 31 to 601 (132 on the paper grid), against
Newton's 13 there.

For a filter the box itself is the feasible set: every ray through it has a
point in the box. Components on a bound whose gradient points out of the
box are frozen; each step maximizes the second-order model
``g.s + s.H s / 2`` over the other coordinates within the trust radius and
is then projected onto the box, and the gain predicted for the projected
step is weighed against the actual gain to adapt the radius. Along the
filter itself the value is flat (``f.g = 0``, ``H f = -g``), so when nothing
is frozen the peak, which the gauge holds at 1, is held fixed too: a chart
of the quotient by the scale (Absil, Mahony & Sepulchre 2008).

In basis mode the step lies in ``c-perp``, the chart for coefficients ``c``.
The box is a scale-free constraint there: ``f_i >= floor f_j`` for every
pair of a row ``i`` and a row ``j`` of ``f = B c``. The pairs of a floor row
and a peak row are the active ones; their multipliers, from nonnegative
least squares, give the projected gradient the convergence test reads.
Those with positive multipliers are held fixed, and so is any pair on the
wall that cuts a step short; a step is cut back along its ray to the first
pair it would break (Nocedal & Wright 2006, ch. 16).

The trust region takes over where ``H`` is indefinite, as it is at the unit
filter. For a filter, Newton first asks once per iterate whether its model
on the free coordinates is negative definite. One Cholesky of the 9 x 9
Woodbury capacitance decides it, and where it holds, the model's maximizer
``-H^-1 g`` is one Woodbury solve: the step at every radius it fits in
(More & Sorensen 1983; Conn, Gould & Toint 2000, ch. 7). Newton's other
steps, and every subproblem in basis mode, are solved by truncated
conjugate gradients on the factored operator, preconditioned by ``|d|``,
so no n x n matrix is formed for a filter. For a filter,
``grad``'s diagonal model needs no iteration: its step is the model's
maximizer along the scaled gradient within the radius, the scaled Cauchy
point (Conn, Gould & Toint 2000, ch. 6). That is CG's first iterate, and on
the ``sigma D`` model its only one. The paper's ``alpha`` does not enter
the step: the regularized ``mu = value + alpha |f|^2 / 2`` is not
invariant under the scale, so it has no model on the quotient. ``alpha``
stays in the reported ``mu`` and in the closed-form
:func:`~vorafilter.calculus.newton_step`. Every accepted step must strictly
increase the value, so reported traces are monotone by construction.

Each filter a run evaluates is factored once, by the rank-checked QR, and
the observer never: its basis is the ``SensorSet``'s. The basis of
``diag(f) Q`` that values an accepted trial is the one the next model is
built on, and a rank-deficient start filter or trial raises
:class:`~vorafilter.errors.RankDeficient` as the public calls do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .calculus import (BasisSet, _basis_hessian, _capacitance, _gradient,
                       _hessian_diagonal, _hessian_factors, _projected_observer,
                       _woodbury)
from .errors import NonPositiveFilter
# Unused here (the QRs go through vora._filtered_basis); bench/run.py looks it up.
from .projectors import _finite_result, orthonormal_columns  # noqa: F401
from .spectral import (DEFAULT_TAU_MAX, DEFAULT_TAU_MIN, FilterSpectrum, SensorSet,
                       _is_integer, _require_same_grid, _single_filter_values)
from .vora import _filtered_basis, _vora_of_bases

_METHODS = ("grad", "newton")
_INITS = ("ones", "random")

# Tolerance for deciding a component sits on a box bound.
_BOUND_EPS = 1e-12
# Trust region, as fractions of the iterate's norm: the first radius and the
# largest, where each ``grad`` step on the Barzilai-Borwein model starts. A
# trial whose actual/predicted gain ratio is below _RATIO_LOW shrinks the
# radius to _RADIUS_SHRINK times its step; above _RATIO_HIGH the radius grows
# to at least twice the step. At most _MAX_BACKTRACKS trials are
# made per iteration, and at most as many Newton steps per wall cut-back.
_MAX_BACKTRACKS = 50
_RADIUS_INIT = 0.1
_RADIUS_MAX = 1.0
_RADIUS_SHRINK = 0.25
_RATIO_LOW = 0.25
_RATIO_HIGH = 0.75
# Truncated CG stops once the preconditioned residual norm falls by this.
_CG_TOL = 1e-10
# Diagonal preconditioner entries are at least this fraction of the largest.
_PRECOND_FLOOR = 1e-3
# Singular values below this fraction of the largest count as zero when the
# basis-mode chart is built.
_NULL_TOL = 1e-10

# A gauged iterate: (x, f), the iterate and the filter it stands for.
_Gauged = tuple[NDArray[np.float64], NDArray[np.float64]]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for :func:`optimize`; defaults suit the 31-sample visible grid."""

    method: str = "grad"
    alpha: float = 1e-4
    max_iters: int = 5000
    tol_obj: float = 1e-12
    tol_grad: float = 1e-8
    tau_min: float = DEFAULT_TAU_MIN
    tau_max: float = DEFAULT_TAU_MAX
    init: str = "ones"
    seed: int = 0
    basis: BasisSet | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")
        if not (0.0 < self.tau_min < self.tau_max <= 1.0):
            raise ValueError("need 0 < tau_min < tau_max <= 1")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not _is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer of at least 1")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not (0.0 <= self.tol_obj < np.inf and 0.0 <= self.tol_grad < np.inf):
            raise ValueError("tol_obj and tol_grad must be finite and nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted step. ``step_len`` is the 2-norm of the trust-region
    step ``s`` before the gauge, and ``grad_inf_norm`` the projected
    gradient's inf-norm at the iterate the step was taken from, both on the
    unit-peak run. Row ``k >= 1`` reports iterate ``k - 1``, so rows 0 and 1
    share one gradient, and a run that ends ``converged_grad`` records no
    row for its final test. ``backtracks`` counts the trials rejected on the
    way, each of which shrank the radius; ``mu`` is the reported filter's."""

    iteration: int
    vora: float
    mu: float
    step_len: float
    grad_inf_norm: float
    backtracks: int


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    """Trace and outcome of one optimization run."""

    iterations: tuple[IterationRecord, ...]
    final_filter: FilterSpectrum
    initial_vora: float
    final_vora: float
    termination: str
    coefficients: NDArray[np.float64] | None = None

    @property
    def accepted_steps(self) -> int:
        return self.iterations[-1].iteration if self.iterations else 0


def _truncated_cg(hess: Callable[[NDArray[np.float64]], NDArray[np.float64]],
                  grad: NDArray[np.float64], precond: NDArray[np.float64],
                  radius: float) -> NDArray[np.float64]:
    """Steihaug-Toint truncated CG for ``max grad.s + s.H s / 2`` subject to
    ``||s|| <= radius``; ``hess`` multiplies by ``H`` and ``precond`` is a
    positive diagonal preconditioner.

    The step ends on the boundary when it would leave the region or meets
    curvature that is not negative, and inside it once the preconditioned
    residual has fallen by ``_CG_TOL``. The region is measured in the
    Euclidean norm, not in the preconditioner's, so the iterates' norms need
    not grow and stopping at the first crossing can end short of the
    Steihaug point: an approximation kept so that the radius means the same
    for every preconditioner. Newton on a filter calls it only for a step
    :func:`_model_peak` does not give: where the model is not negative
    definite, or its peak lies outside the radius.
    """
    s = np.zeros_like(grad)
    r = grad  # gradient of the model at s
    z = r / precond
    p = z
    rz = float(r @ z)
    stop = _CG_TOL**2 * rz
    for _ in range(grad.size):
        if not rz > stop:
            break
        hp = hess(p)
        curv = float(p @ hp)
        if curv < 0.0:
            t = rz / -curv
            s_next = s + t * p
            if np.linalg.norm(s_next) < radius:
                s = s_next
                r = r + t * hp
                z = r / precond
                rz, rz_old = float(r @ z), rz
                p = z + (rz / rz_old) * p
                continue
        # Move along p to the boundary: ||s + tau p|| = radius, tau >= 0.
        sp, pp = float(s @ p), float(p @ p)
        tau = (np.sqrt(sp * sp + pp * (radius * radius - float(s @ s))) - sp) / pp
        return s + tau * p
    return s


def _cauchy_step(grad: NDArray[np.float64], diag: NDArray[np.float64],
                 precond: NDArray[np.float64]) -> Callable[[float], NDArray[np.float64]]:
    """The scaled Cauchy point of ``max grad.s + s.diag s / 2`` (Conn, Gould
    & Toint 2000, ch. 6): a map from a radius to the model's maximizer along
    ``p = grad / precond`` within it, ``min(t*, radius / |p|) p`` with
    ``t* = grad.p / -(p.diag p)``.

    Where the curvature along ``p`` is not negative, ``t*`` is infinite and
    the step reaches the radius; a zero ``p`` gives the zero step. This is
    the first iterate of :func:`_truncated_cg` on the same model, and its
    last when ``precond`` is ``|diag|``.
    """
    p = grad / precond
    p_norm = float(np.linalg.norm(p))
    if not p_norm > 0.0:
        return lambda radius: p
    curv = float(p @ (diag * p))
    t_peak = float(grad @ p) / -curv if curv < 0.0 else np.inf
    return lambda radius: min(t_peak, radius / p_norm) * p


def _model_peak(d: NDArray[np.float64], u: NDArray[np.float64],
                grad: NDArray[np.float64]) -> NDArray[np.float64] | None:
    """The maximizer ``-H^-1 grad`` of ``grad.s + s.H s / 2`` where
    ``H = diag(d) + U U^T`` is negative definite; None where it is not.

    A coordinate with ``d_i >= 0`` has ``e_i.H e_i = d_i + |U_i|^2 >= 0``.
    Where ``d < 0``, ``H`` is negative definite exactly when the capacitance
    ``I + U^T D^-1 U`` is positive definite (Haynsworth's inertia
    additivity), so a Cholesky of the k x k capacitance decides it, and the
    same capacitance gives the step by Woodbury in O(k^2 n). The solve is
    not checked: the trust region's ratio test vets the step.
    """
    if not np.all(d < 0.0):
        return None
    du, capacitance = _capacitance(d, u)
    try:
        np.linalg.cholesky(capacitance)
    except np.linalg.LinAlgError:
        return None
    return _woodbury(d, u, du, capacitance, -grad)


def _preconditioner(diag: NDArray[np.float64]) -> NDArray[np.float64]:
    """``|diag|``, floored at ``_PRECOND_FLOOR`` times its largest entry."""
    scale = np.abs(diag)
    if not scale.any():
        return np.ones_like(scale)
    return np.maximum(scale, _PRECOND_FLOOR * scale.max())


def _nnls(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """The ``x >= 0`` minimizing ``|a x - b|``, by Lawson & Hanson's active
    set method (1974)."""
    x = np.zeros(a.shape[1])
    passive = np.zeros(x.size, dtype=bool)
    tol = 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)
    for _ in range(3 * x.size):
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        if not w.max() > tol:
            break
        passive[np.argmax(w)] = True
        while passive.any():
            z = np.zeros_like(x)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                x = z
                break
            # Step from x toward z until the first passive entry reaches 0.
            out = passive & (z <= 0.0)
            gap = x[out] - z[out]
            x = x + np.min(np.divide(x[out], gap, out=np.zeros_like(gap),
                                     where=gap > 0.0)) * (z - x)
            passive &= x > 0.0
            x[~passive] = 0.0
    return x


def _null_space(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """Orthonormal columns spanning the vectors orthogonal to every row."""
    _, sv, vt = np.linalg.svd(rows)
    return vt[int(np.sum(sv > _NULL_TOL * sv[0])):].T


def _cut_back(f: NDArray[np.float64], u: NDArray[np.float64],
              ratio: float) -> tuple[float, int, int]:
    """Largest ``t`` in [0, 1] with ``min(f + t u) >= ratio max(f + t u)``,
    and the rows of that min and max, given that ``t = 0`` qualifies.

    The gap ``min - ratio max`` is concave and piecewise linear in ``t``, so
    Newton's method from ``t = 1`` falls onto the answer from above in a few
    steps.
    """
    t = 1.0
    for _ in range(_MAX_BACKTRACKS):
        ft = f + t * u
        i, j = int(np.argmin(ft)), int(np.argmax(ft))
        gap = ft[i] - ratio * ft[j]
        if gap >= 0.0:
            break
        slope = u[i] - ratio * u[j]
        t = max(t - gap / slope, 0.0) if slope < 0.0 else 0.0
    return t, i, j


class _RunState:
    """Innards of one optimization run: iterate ``x``, its filter ``f``, the
    basis ``w`` of ``diag(f) Q``, the value and the observer's basis ``v``."""

    def __init__(self, camera: SensorSet, observer: SensorSet,
                 config: OptimizerConfig,
                 initial_filter: FilterSpectrum | None) -> None:
        grids = () if config.basis is None else (config.basis.grid,)
        _require_same_grid(camera.grid, observer.grid, *grids)
        self.camera, self.v, self.config = camera, observer.basis, config
        self.floor = config.tau_min / config.tau_max  # the box at unit peak
        self.grid = camera.grid
        self.basis = config.basis.basis if config.basis is not None else None
        if initial_filter is not None:
            f0 = _single_filter_values(initial_filter, self.grid)
        elif config.init == "ones":
            f0 = np.ones(self.grid.count)
        else:
            rng = np.random.default_rng(config.seed)
            f0 = rng.uniform(config.tau_min, config.tau_max, self.grid.count)
        if self.basis is None:
            self.gauge = self._gauge_full
            self.x, self.f = self.gauge(f0)
        else:
            self.gauge = self._gauge_coeffs
            self.x, self.f = self._feasible_coeffs(f0)
        self.w = _filtered_basis(camera, self.f)
        self.value = _vora_of_bases(self.w, self.v)
        self.radius = _RADIUS_INIT  # trust region, relative to |x|
        self.previous = None  # (x, g) at the last iterate, for grad's model

    def _feasible_coeffs(self, f0: NDArray[np.float64]) -> _Gauged:
        # Blend the fit of f0 toward the constant-filter fit until the
        # combination is a valid (positive, in-box after gauging) filter; f0
        # is first scaled exactly, by a power of two, to peak in [0.5, 1).
        f0 = np.ldexp(f0, -np.frexp(f0.max())[1])
        fit, *_ = np.linalg.lstsq(self.basis, f0, rcond=None)
        ones_fit, *_ = np.linalg.lstsq(self.basis, np.ones(self.grid.count), rcond=None)
        blend = 1.0
        for _ in range(60):
            gauged = self.gauge(ones_fit + blend * (fit - ones_fit))
            if gauged is not None:
                return gauged
            blend *= 0.5
        raise NonPositiveFilter("could not find a feasible basis start point")

    # -- gauge: a trial iterate -> (iterate, filter), or None if infeasible --

    def _gauge_full(self, values: NDArray[np.float64]) -> _Gauged:
        """Rescale into the gauge, then clip into the box. The peak is
        positive: so is a start filter, and a trial (never a NaN step) keeps
        at least one row of the iterate as it is."""
        f = np.minimum(np.maximum(values * (1.0 / values.max()), self.floor), 1.0)
        return f, f

    def _gauge_coeffs(self, coeffs: NDArray[np.float64]) -> _Gauged | None:
        """Rescale coefficients into the gauge; rejects out-of-box filters.

        The filter is recomputed from the scaled coefficients so the
        feasibility check sees exactly the vector later code will use
        (scaling f and scaling c differ by an ulp).
        """
        c, f = coeffs, self.basis @ coeffs
        peak = f.max()
        if not np.isfinite(peak) or peak <= 0.0:
            return None
        for _ in range(4):
            c = c * (1.0 / peak)
            f = self.basis @ c
            peak = f.max()
            if peak <= 1.0:
                break
        else:
            return None
        return None if np.any(f < self.floor) else (c, f)

    # -- objective and model -----------------------------------------------

    def mu(self) -> float:
        # The stored value is the objective at f, so nothing is re-evaluated;
        # the alpha term is the reported filter's, at peak tau_max.
        f = self.f * self.config.tau_max
        return self.value + 0.5 * self.config.alpha * float(f @ f)

    def _frozen(self, g: NDArray[np.float64]) -> NDArray[np.bool_]:
        """Filter components on a bound of the box whose gradient points out."""
        return (((self.f >= 1.0 - _BOUND_EPS) & (g > 0.0))
                | ((self.f <= self.floor + _BOUND_EPS) & (g < 0.0)))

    def trust_subproblem(self):
        """The model at the iterate, as the projected gradient the
        convergence test reads, and a map from a radius to the step and its
        predicted gain: the zero step and no gain when no coordinate is free.

        The model is ``g.s + s.H s / 2`` in the chart of the iterate (see the
        module docstring), with ``H = diag(d) + U U^T`` for ``newton`` and
        the diagonal of :meth:`_spectral_diagonal` for ``grad``; in basis
        mode ``B^T H B``. For a filter the step is projected onto the box,
        for coefficients cut back to the box, and the gain predicted for the
        step so changed. The model is built once here, from one projection
        of the observer's basis, and so is Newton's interior step on a
        filter, :func:`_model_peak`: each radius then costs that step where
        it fits, CG iterations otherwise, and for ``grad`` on a filter the
        closed-form :func:`_cauchy_step`; ``grad`` builds ``d`` alone, never
        ``U``. Called once per iterate: ``grad`` keeps the iterate and
        gradient for the next call's model.
        """
        cfg = self.config
        r = _projected_observer(self.w, self.v)
        g = _gradient(r, self.v, self.f)
        if cfg.method == "newton":
            d, u = _hessian_factors(self.w, self.v, r, self.f)
        else:
            d = self._spectral_diagonal(g, _hessian_diagonal(r, self.f))
            u = np.empty((d.size, 0))
        if self.basis is not None:
            return self._wall_subproblem(_basis_hessian(d, u, self.basis),
                                         self.basis.T @ g)
        frozen = self._frozen(g)
        steer = np.where(frozen, 0.0, g)
        free = ~frozen
        if free.all():
            free[np.argmax(self.f)] = False
        d, grad, f_free = d[free], g[free], self.f[free]
        lo, hi = self.floor - f_free, 1.0 - f_free
        precond = _preconditioner(d)

        if cfg.method == "newton":
            u = u[free]

            def hess(p: NDArray[np.float64]) -> NDArray[np.float64]:
                return d * p + u @ (u.T @ p)

            peak = _model_peak(d, u, grad)
            peak_norm = np.inf if peak is None else float(np.linalg.norm(peak))

            def model_step(radius: float) -> NDArray[np.float64]:
                if peak_norm <= radius:
                    return peak
                return _truncated_cg(hess, grad, precond, radius)
        else:
            hess = d.__mul__  # grad's U has no columns: U U^T p adds exact zeros
            model_step = _cauchy_step(grad, d, precond)

        def solve(radius: float) -> tuple[NDArray[np.float64], float]:
            # np.clip's values, without its wrapper: the bounds are not NaN.
            s = np.minimum(np.maximum(model_step(radius), lo), hi)
            step = np.zeros(free.size)
            step[free] = s
            return step, float(grad @ s + 0.5 * (s @ hess(s)))

        return steer, solve

    def _spectral_diagonal(self, g: NDArray[np.float64],
                           d: NDArray[np.float64]) -> NDArray[np.float64]:
        """``grad``'s model diagonal at the iterate with gradient ``g``.

        From the last step ``s`` (in filter space: ``B s`` for coefficients)
        and gradient change ``y``, ``sigma = s.y / s.D s`` in the metric of
        ``D = _preconditioner(d)`` is the model's curvature along ``s``; when
        it is negative the diagonal is ``sigma D`` and the next trust region
        starts at its largest radius. Otherwise, and without a last step, it
        is ``d``.
        """
        previous, self.previous = self.previous, (self.x, g)
        if previous is None:
            return d
        s = self.x - previous[0]
        if self.basis is not None:
            s = self.basis @ s
        scale = _preconditioner(d)
        sds = float(s @ (scale * s))
        if not sds > 0.0:
            return d
        sigma = float(s @ (g - previous[1])) / sds
        if not sigma < 0.0:
            return d
        self.radius = _RADIUS_MAX
        return sigma * scale

    def _wall_subproblem(self, h: NDArray[np.float64], grad: NDArray[np.float64]):
        """:meth:`trust_subproblem` for coefficients, with Hessian ``h`` and
        gradient ``grad`` in coefficient space.

        Each pair of a floor row ``i`` and a peak row ``j`` of the filter
        gives the constraint ``n.c >= 0`` with ``n = B_i - ratio B_j``. The
        wall the steps stop at sits ``_BOUND_EPS`` above the floor, so that
        rounding in the gauge never takes a filter row under the floor; the
        cut-back allows rounding-sized slips past it, so that a held pair
        whose step is zero only up to rounding does not block the step.
        """
        b, c, f = self.basis, self.x, self.f
        ratio = self.floor + _BOUND_EPS
        cut_ratio = min(ratio, f.min() / f.max()) - 1e-3 * _BOUND_EPS
        rows_lo = np.flatnonzero(f <= ratio + _BOUND_EPS)
        rows_hi = np.flatnonzero(f >= 1.0 - _BOUND_EPS)
        pair_lo = np.repeat(rows_lo, rows_hi.size)
        pair_hi = np.tile(rows_hi, rows_lo.size)
        normals = b[pair_lo] - ratio * b[pair_hi]
        held = _nnls(-normals.T, grad)
        steer = grad + normals.T @ held
        def chart(active: NDArray[np.bool_]) -> tuple[NDArray[np.float64], ...]:
            z = _null_space(np.vstack([c, normals[active]]))
            hz = z.T @ h @ z
            return z, hz, z.T @ grad, _preconditioner(np.diag(hz))

        held_chart = chart(held > 0.0)

        def solve(radius: float) -> tuple[NDArray[np.float64], float]:
            # A pair that cuts the step short from where it already is joins
            # the held ones, and the step is solved again.
            active = held > 0.0
            z, hz, gz, precond = held_chart
            for _ in range(active.size + 1):
                s = z @ _truncated_cg(hz.__matmul__, gz, precond, radius)
                t, i, j = _cut_back(f, b @ s, cut_ratio)
                hit = (pair_lo == i) & (pair_hi == j) & ~active
                if t == 1.0 or not hit.any():
                    break
                active |= hit
                z, hz, gz, precond = chart(active)
            s = t * s
            return s, float(grad @ s + 0.5 * (s @ (h @ s)))

        return steer, solve

    def trust_region(self, solve: Callable[[float], tuple[NDArray[np.float64], float]]):
        """Take the first trust-region step that strictly increases the
        objective: commit its iterate, filter, basis and value, and return
        (gain, step_len, rejected trials). None, with the state unchanged,
        if there is none."""
        # The 2-norms as np.linalg.norm forms them for a 1-D float64.
        x_norm = math.sqrt(self.x.dot(self.x))
        radius = self.radius * x_norm
        for rejected in range(_MAX_BACKTRACKS):
            step, predicted = solve(radius)
            step_len = math.sqrt(step.dot(step))
            if step_len == 0.0:  # the radius shrinks to 0: every later step is 0
                break
            # A step the model does not expect to gain is rejected untried.
            gauged = self.gauge(self.x + step) if predicted > 0.0 else None
            w_t = None if gauged is None else _filtered_basis(self.camera, gauged[1])
            v_t = -np.inf if gauged is None else _vora_of_bases(w_t, self.v)
            ratio = -np.inf if gauged is None else (v_t - self.value) / predicted
            if ratio < _RATIO_LOW:
                radius = _RADIUS_SHRINK * step_len
            elif ratio > _RATIO_HIGH:
                radius = min(max(radius, 2.0 * step_len), _RADIUS_MAX * x_norm)
            if v_t > self.value:
                gain = v_t - self.value
                self.radius = radius / x_norm
                (self.x, self.f), self.w, self.value = gauged, w_t, v_t
                return gain, step_len, rejected
        return None


@_finite_result
def optimize(camera: SensorSet, observer: SensorSet,
             config: OptimizerConfig | None = None,
             initial_filter: FilterSpectrum | None = None) -> OptimizationReport:
    """Maximize the filtered Vora-Value; returns the per-iteration trace.

    Termination labels:

    converged_grad  projected gradient inf-norm below ``tol_grad``
    converged_obj   accepted improvements below ``tol_obj`` three in a row,
                    or no improving step while the model predicts a gain
                    below ``tol_obj`` at the largest radius
    stalled         no improving step while the model predicts a gain of
                    at least ``tol_obj`` at the largest radius
    max_iters       iteration budget exhausted
    """
    cfg = config if config is not None else OptimizerConfig()
    state = _RunState(camera, observer, cfg, initial_filter)
    initial_vora = state.value
    rows: list[IterationRecord] = []
    small_steps = 0
    termination = "max_iters"

    for it in range(1, cfg.max_iters + 1):
        steer, solve = state.trust_subproblem()
        grad_norm = float(np.abs(steer).max())
        if it == 1:
            rows.append(IterationRecord(0, state.value, state.mu(), 0.0, grad_norm, 0))
        if grad_norm < cfg.tol_grad:
            termination = "converged_grad"
            break

        best = state.trust_region(solve)
        if best is None:
            # The model may promise less than tol_obj anywhere in the
            # largest region: the value is then resolved as far as it goes.
            promised = solve(_RADIUS_MAX * float(np.linalg.norm(state.x)))[1]
            termination = "converged_obj" if promised < cfg.tol_obj else "stalled"
            break

        gain, step_len, backtracks = best
        rows.append(IterationRecord(it, state.value, state.mu(), step_len, grad_norm,
                                    backtracks))
        small_steps = small_steps + 1 if gain < cfg.tol_obj else 0
        if small_steps >= 3:
            termination = "converged_obj"
            break

    final = np.clip(state.f * cfg.tau_max, cfg.tau_min, cfg.tau_max)
    return OptimizationReport(
        iterations=tuple(rows),
        final_filter=FilterSpectrum(state.grid, final, cfg.tau_min, cfg.tau_max),
        initial_vora=initial_vora,
        final_vora=state.value,
        termination=termination,
        coefficients=None if state.basis is None else state.x * cfg.tau_max,
    )
