"""Shared fixtures: the bundled spectral data and randomized test instances."""

from __future__ import annotations

import importlib.resources

import numpy as np
import pytest

from vorafilter import (
    DEFAULT_GRID,
    FilterSpectrum,
    SensorSet,
    WavelengthGrid,
    filtered_vora_value,
    gaussian_camera,
    gradient,
    load_sensor_set,
)

CIE_CSV = importlib.resources.files("vorafilter").joinpath("data", "cie1931_2deg_5nm.csv")


def cie_csv_text() -> str:
    return CIE_CSV.read_text(encoding="utf-8")


def cie_observer(n: int = DEFAULT_GRID.count) -> SensorSet:
    """The bundled CIE 1931 observer on the n-sample 400-700 nm grid."""
    grid = WavelengthGrid(start_nm=400.0, step_nm=300.0 / (n - 1), count=n)
    return load_sensor_set(CIE_CSV, grid)


def cie_instance(n: int, seed: int | None = None, floor: bool = False):
    """The Gaussian camera and the CIE observer on the n-sample grid, and a
    random transmittance in [0.3, 1] (ten entries at 1e-4 if ``floor``),
    drawn with ``seed``, by default ``n``."""
    observer = cie_observer(n)
    rng = np.random.default_rng(n if seed is None else seed)
    target = rng.uniform(0.3, 1.0, n)
    if floor:
        target[rng.permutation(n)[:10]] = 1e-4
    return gaussian_camera(observer.grid), observer, target


def rel_err(candidate, reference) -> float:
    return float(np.max(np.abs(candidate - reference)) /
                 np.max(np.abs(reference)))


def objective_fn(camera, observer):
    """The value over a stack of filters, as the FD oracles call it."""
    return lambda probes: filtered_vora_value(camera, observer, probes)


def gradient_fn(camera, observer):
    """The gradient over a stack of filters, as the FD oracles call it."""
    return lambda probes: gradient(camera, observer, probes)


@pytest.fixture(scope="session")
def observer() -> SensorSet:
    return cie_observer()


@pytest.fixture(scope="session")
def camera() -> SensorSet:
    """The pinned synthetic camera: Gaussian lobes at 450/550/600 nm."""
    return gaussian_camera()


def make_random_camera(seed: int, grid: WavelengthGrid = DEFAULT_GRID) -> SensorSet:
    """Randomized three-lobe camera; perturbed peaks, widths, and noise."""
    rng = np.random.default_rng(seed)
    lam = grid.wavelengths
    peaks = np.array([450.0, 550.0, 600.0]) + rng.uniform(-25.0, 25.0, 3)
    sigmas = rng.uniform(20.0, 45.0, 3)
    cols = [np.exp(-0.5 * ((lam - mu) / sg) ** 2) for mu, sg in zip(peaks, sigmas)]
    responses = np.column_stack(cols)
    responses += 0.02 * rng.standard_normal(responses.shape)
    return SensorSet(grid=grid, responses=responses)


def make_random_filter(seed: int, grid: WavelengthGrid = DEFAULT_GRID,
                       lo: float = 0.2, hi: float = 1.0) -> FilterSpectrum:
    rng = np.random.default_rng(seed ^ 0x5F5F)
    return FilterSpectrum(grid=grid, transmittance=rng.uniform(lo, hi, grid.count))


def random_instances(count: int, start_seed: int = 100):
    """(camera, filter) pairs used by the derivative acceptance checks."""
    return [(make_random_camera(start_seed + i),
             make_random_filter(start_seed + i)) for i in range(count)]


def sabotage_gradient(monkeypatch) -> None:
    """Make ``vorafilter check`` see a gradient with 1e-3 added to ``g[0]``,
    for one filter and for every row of a stack: the negative control its
    identities must fail."""
    import vorafilter.cli as cli

    exact = cli.gradient

    def sabotaged(camera, observer, filt):
        g = exact(camera, observer, filt)
        g[..., 0] += 1e-3
        return g

    monkeypatch.setattr(cli, "gradient", sabotaged)


def sabotage_newton_step(monkeypatch) -> None:
    """Make ``vorafilter check`` see every Newton step scaled by ``1 + 1e-6``:
    the negative control ``newton_closed_form`` must fail."""
    import vorafilter.cli as cli

    exact = cli.newton_step

    def sabotaged(camera, observer, filt, alpha):
        return exact(camera, observer, filt, alpha) * (1.0 + 1e-6)

    monkeypatch.setattr(cli, "newton_step", sabotaged)


@pytest.fixture(scope="session")
def pinned_runs(camera, observer):
    """Optimization runs on the pinned instance, shared across test modules.

    The gradient method runs at library defaults; the Newton run keeps the
    default alpha = 1e-4 with a budget of one fifth of the gradient method's
    iteration limit, which is the comparison the efficiency tests make.
    """
    from vorafilter import OptimizerConfig, optimize

    grad_report = optimize(camera, observer, OptimizerConfig(method="grad"))
    newton_report = optimize(
        camera, observer,
        OptimizerConfig(method="newton", alpha=1e-4, max_iters=1000))
    return {"grad": grad_report, "newton": newton_report}
