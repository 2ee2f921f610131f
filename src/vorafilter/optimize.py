"""Filter optimization: projected gradient ascent and regularized Newton.

Both methods maximize the filtered Vora-Value over the box
``[tau_min, tau_max]^n``. A run keeps one iterate ``x``: the filter, or its
coefficients in a smoothness basis. The objective is invariant to rescaling
the filter, so every trial iterate passes through one gauge, chosen per run,
that scales it to maximum transmittance ``tau_max`` and returns its filter:
clipped into the box for a filter, rejected for coefficients whose filter
leaves it. The gauge step never changes the objective.

The Newton direction solves ``(H + alpha I) d = -(g + alpha f)`` on the
components not pinned at an active bound. A positive ``alpha`` is required:
at ``alpha = 0`` the step collapses onto the current filter itself and
carries no search information. Every candidate step must strictly increase
the objective, so reported traces are monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .calculus import BasisSet, _Kernel
from .errors import NoAscent, NonPositiveFilter, SingularSystem
# Not called here: bench/run.py traces QR calls through this module's name.
from .projectors import orthonormal_columns  # noqa: F401
from .spectral import FilterSpectrum, SensorSet
from .vora import _require_same_grid

_METHODS = ("grad", "newton")
_INITS = ("ones", "random")

# Tolerance for deciding a component sits on a box bound.
_BOUND_EPS = 1e-12
# Backtracking line search: step factor per trial, and trials per search.
_SHRINK = 0.5
_MAX_BACKTRACKS = 50

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
    tau_min: float = 1e-4
    tau_max: float = 1.0
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
        if self.method == "newton" and self.alpha <= 0:
            raise ValueError("newton method requires alpha > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0.0 <= self.tol_obj < np.inf and 0.0 <= self.tol_grad < np.inf):
            raise ValueError("tol_obj and tol_grad must be finite and nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted step. ``step_len`` is the 2-norm of the raw step t*d."""

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
    normalized_filter: NDArray[np.float64]
    initial_vora: float
    final_vora: float
    termination: str
    coefficients: NDArray[np.float64] | None = None

    @property
    def accepted_steps(self) -> int:
        return self.iterations[-1].iteration if self.iterations else 0


def project_to_box(values: NDArray[np.float64], tau_min: float,
                   tau_max: float) -> NDArray[np.float64]:
    """Componentwise clamp into [tau_min, tau_max]."""
    return np.clip(np.asarray(values, dtype=np.float64), tau_min, tau_max)


def newton_step(camera: SensorSet, observer: SensorSet, filt: FilterSpectrum,
                alpha: float) -> NDArray[np.float64]:
    """Regularized Newton step ``-(H + alpha I)^-1 (g + alpha f)``.

    ``H + alpha I`` is a diagonal plus a rank-9 term (see
    :mod:`vorafilter.calculus`), so the step is solved by Sherman-Morrison-
    Woodbury in O(81 n) time and O(n) memory; no n x n matrix or inverse is
    formed unless the residual check sends the solve to its dense fallback.
    ``alpha`` must be positive: without regularization the step degenerates
    to the current filter and the search learns nothing.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite for a Newton step")
    kernel = _Kernel(camera, observer, filt.grid)
    f = filt.transmittance
    w = kernel.filtered_basis(f)
    return kernel.newton(w, f, kernel.gradient(w, f), alpha)


class _RunState:
    """Innards of one optimization run: iterate ``x``, its filter ``f``, value."""

    def __init__(self, camera: SensorSet, observer: SensorSet,
                 config: OptimizerConfig,
                 initial_filter: FilterSpectrum | None) -> None:
        grids = () if config.basis is None else (config.basis.grid,)
        self.kernel = _Kernel(camera, observer, *grids)
        self.config = config
        self.grid = camera.grid
        self.basis = config.basis.basis if config.basis is not None else None
        if initial_filter is not None:
            _require_same_grid(self.grid, initial_filter.grid)
            f0 = initial_filter.transmittance.copy()
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
        self.value = self.kernel.value(self.f)

    def _feasible_coeffs(self, f0: NDArray[np.float64]) -> _Gauged:
        # Blend the fit of f0 toward the constant-filter fit until the
        # combination is a valid (positive, in-box after gauging) filter.
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

    def _gauge_full(self, values: NDArray[np.float64]) -> _Gauged | None:
        """Rescale into the gauge, then clip into the box."""
        peak = values.max()
        if not peak > 0.0:
            return None
        f = project_to_box(values * (self.config.tau_max / peak),
                           self.config.tau_min, self.config.tau_max)
        return f, f

    def _gauge_coeffs(self, coeffs: NDArray[np.float64]) -> _Gauged | None:
        """Rescale coefficients into the gauge; rejects out-of-box filters.

        The filter is recomputed from the scaled coefficients so the
        feasibility check sees exactly the vector later code will use
        (scaling f and scaling c differ by an ulp).
        """
        cfg = self.config
        c = coeffs
        f = self.basis @ c
        peak = f.max()
        if not np.isfinite(peak) or peak <= 0.0:
            return None
        for _ in range(4):
            c = c * (cfg.tau_max / peak)
            f = self.basis @ c
            peak = f.max()
            if peak <= cfg.tau_max:
                break
        else:
            return None
        return None if np.any(f < cfg.tau_min) else (c, f)

    # -- objective and derivatives ---------------------------------------

    def mu(self) -> float:
        # The stored value is the objective at f, so nothing is re-evaluated.
        return self.value + 0.5 * self.config.alpha * float(self.f @ self.f)

    @property
    def coefficients(self) -> NDArray[np.float64] | None:
        return None if self.basis is None else self.x.copy()

    def derivatives(self) -> tuple[NDArray[np.float64], ...]:
        """Filtered camera basis ``W``, gradient, and steering direction at the
        iterate: the box-projected gradient for a filter, ``B^T g`` for
        coefficients."""
        w = self.kernel.filtered_basis(self.f)
        g = self.kernel.gradient(w, self.f)
        if self.basis is not None:
            return w, g, self.basis.T @ g
        cfg = self.config
        gp = g.copy()
        gp[(self.f >= cfg.tau_max - _BOUND_EPS) & (g > 0)] = 0.0
        gp[(self.f <= cfg.tau_min + _BOUND_EPS) & (g < 0)] = 0.0
        return w, g, gp

    def newton_direction(self, w: NDArray[np.float64],
                         g: NDArray[np.float64]) -> NDArray[np.float64] | None:
        """Regularized Newton direction, frozen on the active lower bound.

        Only the tau_min bound is treated as active: the upper bound is a
        gauge artifact (rescaling relaxes it), so components riding it stay
        in the solve. Basis mode solves for every coefficient.
        """
        cfg = self.config
        free = None
        if self.basis is None:
            free = ~((self.f <= cfg.tau_min + _BOUND_EPS) & (g < 0.0))
            if not free.any():
                return None
        try:
            return self.kernel.newton(w, self.f, g, cfg.alpha, self.basis, free)
        except SingularSystem:
            return None

    # -- line search -------------------------------------------------------

    def line_search(self, direction: NDArray[np.float64]):
        """First backtracked step that strictly increases the objective, as
        (x, f, value, step_len, backtracks); None if there is none."""
        d_norm = float(np.linalg.norm(direction))
        if d_norm == 0.0 or not np.isfinite(d_norm):
            return None
        t = 1.0
        for bt in range(_MAX_BACKTRACKS):
            gauged = self.gauge(self.x + t * direction)
            if gauged is not None:
                x_t, f_t = gauged
                v_t = self.kernel.value(f_t)
                if v_t > self.value:
                    return x_t, f_t, v_t, t * d_norm, bt
            t *= _SHRINK
        return None


def optimize(camera: SensorSet, observer: SensorSet,
             config: OptimizerConfig | None = None,
             initial_filter: FilterSpectrum | None = None) -> OptimizationReport:
    """Maximize the filtered Vora-Value; returns the per-iteration trace.

    Termination labels:

    converged_grad  projected gradient inf-norm below ``tol_grad``
    converged_obj   accepted improvements below ``tol_obj`` three in a row
    stalled         no improving step found after the first iteration
    max_iters       iteration budget exhausted

    Raises :class:`NoAscent` if the very first line search fails while the
    gradient is still meaningfully nonzero.
    """
    cfg = config if config is not None else OptimizerConfig()
    state = _RunState(camera, observer, cfg, initial_filter)
    initial_vora = state.value
    rows: list[IterationRecord] = []
    small_steps = 0
    termination = "max_iters"

    for it in range(1, cfg.max_iters + 1):
        w, g, g_steer = state.derivatives()
        grad_norm = float(np.max(np.abs(g_steer)))
        if it == 1:
            rows.append(IterationRecord(0, state.value, state.mu(), 0.0, grad_norm, 0))
        if grad_norm < cfg.tol_grad:
            termination = "converged_grad"
            break

        best = state.line_search(g_steer)
        if cfg.method == "newton":
            # Newton races the plain ascent direction and wins ties: near the
            # optimum the damped Newton system can go quiet while g still climbs.
            d_newton = state.newton_direction(w, g)
            res_n = None if d_newton is None else state.line_search(d_newton)
            if res_n is not None and (best is None or res_n[2] >= best[2]):
                best = res_n

        if best is None:
            if it == 1:
                raise NoAscent("line search found no improving step at iteration 1")
            termination = "stalled"
            break

        gain = best[2] - state.value
        state.x, state.f, state.value, step_len, backtracks = best
        rows.append(IterationRecord(it, state.value, state.mu(), step_len, grad_norm,
                                    backtracks))
        small_steps = small_steps + 1 if gain < cfg.tol_obj else 0
        if small_steps >= 3:
            termination = "converged_obj"
            break

    final = FilterSpectrum(grid=state.grid, transmittance=state.f,
                           tau_min=cfg.tau_min, tau_max=cfg.tau_max)
    return OptimizationReport(
        iterations=tuple(rows),
        final_filter=final,
        normalized_filter=state.f / float(state.f.max()),
        initial_vora=initial_vora,
        final_vora=state.value,
        termination=termination,
        coefficients=state.coefficients,
    )
