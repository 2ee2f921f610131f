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
    gaussian_camera,
    parse_spectral_csv,
    resample_to_grid,
)


def cie_csv_text() -> str:
    return (importlib.resources.files("vorafilter")
            .joinpath("data", "cie1931_2deg_5nm.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def cie_table():
    return parse_spectral_csv(cie_csv_text(), expected_channels=3)


@pytest.fixture(scope="session")
def observer(cie_table) -> SensorSet:
    responses = resample_to_grid(cie_table.wavelengths, cie_table.values,
                                 DEFAULT_GRID)
    return SensorSet(grid=DEFAULT_GRID, responses=responses,
                     channel_names=("x", "y", "z"))

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
