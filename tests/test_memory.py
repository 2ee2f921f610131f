"""Peak memory of the derivative and optimizer paths on a fine grid.

At n = 2001 one n x n float64 array is 32 MB, so a peak under 4 MB shows
that none is formed: the gradient, the Newton solve and the optimizer work
from n x 3 and n x 9 factors only.

The finite-difference oracles call their function on blocks of probes of at
most ``FD_BLOCK_BYTES`` (256 KiB, 13 pairs at n = 1201). At n = 1201 the
whole (2n, n) probe stack, evaluated at once, peaks above 200 MB; in blocks
the work stays under 32 MB, beside the n x n result of ``fd_hessian``
(11.5 MB, held twice while its blocks are joined).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import cie_instance, gradient_fn, objective_fn
from vorafilter import (
    FilterSpectrum,
    OptimizerConfig,
    fd_gradient,
    fd_hessian,
    gradient,
    gradient_in_basis,
    make_basis,
    newton_step,
    optimize,
)

N_FINE = 2001
PEAK_LIMIT_BYTES = 4 * 2**20
N_FD = 1201
FD_BLOCK_LIMIT_BYTES = 32 * 2**20


def fine_instance(n):
    camera, observer, f = cie_instance(n, seed=7)
    return camera, observer, FilterSpectrum(grid=camera.grid, transmittance=f)


@pytest.fixture(scope="module")
def fine():
    camera, observer, filt = fine_instance(N_FINE)
    coeffs = np.zeros(8)
    coeffs[0], coeffs[2] = 0.7, 0.1
    return camera, observer, filt, make_basis("cosine", 8, camera.grid), coeffs


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


def test_fd_oracles_evaluate_probe_blocks():
    camera, observer, filt = fine_instance(N_FD)
    result_bytes = N_FD * N_FD * 8
    assert peak_bytes(fd_gradient, objective_fn(camera, observer),
                      filt) < FD_BLOCK_LIMIT_BYTES
    assert peak_bytes(fd_hessian, gradient_fn(camera, observer),
                      filt) < FD_BLOCK_LIMIT_BYTES + 2 * result_bytes
