"""Peak memory of the derivative and optimizer paths on a fine grid.

At n = 2001 one n x n float64 array is 32 MB, so a peak under 4 MB shows
that none is formed: the gradient, the Newton solve and the optimizer work
from n x 3 and n x 9 factors only.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from vorafilter import (
    FilterSpectrum,
    OptimizerConfig,
    SensorSet,
    WavelengthGrid,
    gaussian_camera,
    gradient,
    gradient_in_basis,
    make_basis,
    newton_step,
    optimize,
    resample_to_grid,
)

N_FINE = 2001
PEAK_LIMIT_BYTES = 4 * 2**20


@pytest.fixture(scope="module")
def fine(cie_table):
    grid = WavelengthGrid(start_nm=400.0, step_nm=300.0 / (N_FINE - 1), count=N_FINE)
    observer = SensorSet(grid=grid, responses=resample_to_grid(
        cie_table.wavelengths, cie_table.values, grid))
    filt = FilterSpectrum(grid=grid, transmittance=np.random.default_rng(7).uniform(
        0.3, 1.0, N_FINE))
    basis = make_basis("cosine", 8, grid)
    coeffs = np.zeros(8)
    coeffs[0], coeffs[2] = 0.7, 0.1
    return gaussian_camera(grid), observer, filt, basis, coeffs


def peak_bytes(fn, *args) -> int:
    """Peak traced allocation of ``fn(*args)`` above what was live before."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_gradient(fine):
    camera, observer, filt, _, _ = fine
    assert peak_bytes(gradient, camera, observer, filt) < PEAK_LIMIT_BYTES


def test_gradient_in_basis(fine):
    camera, observer, _, basis, coeffs = fine
    assert peak_bytes(gradient_in_basis, camera, observer, basis, coeffs) < PEAK_LIMIT_BYTES


def test_newton_step(fine):
    camera, observer, filt, _, _ = fine
    assert peak_bytes(newton_step, camera, observer, filt, 1e-6) < PEAK_LIMIT_BYTES


def test_newton_optimize(fine):
    camera, observer, _, _, _ = fine
    config = OptimizerConfig(method="newton", alpha=1e-6, max_iters=3)
    assert peak_bytes(optimize, camera, observer, config) < PEAK_LIMIT_BYTES
