"""The Vora-Value and its filtered variant.

The Vora-Value measures how similarly two trichromatic sensor sets sample
spectra: it is the mean squared cosine of the principal angles between their
column spaces, a number in [0, 1]. A value of 1 means the camera responses
are an exact linear transform of the observer's tristimulus values.

Evaluation goes through orthonormal bases W and V of the two spaces:

    value = trace(W W^T V V^T) / 3 = ||W^T V||_F^2 / 3

which is algebraically identical to the normal-equations formula
``trace(Q (Q^T Q)^-1 Q^T X (X^T X)^-1 X^T) / 3`` but numerically stable for
ill-conditioned sensor matrices.

A filter argument is checked where it enters, by the one intake in
:mod:`vorafilter.spectral`: :func:`filtered_vora_value` takes a
``FilterSpectrum`` or an (m, n) stack of filters. Only :func:`_filtered_basis`
turns it into the basis of ``diag(f) Q``, for the value, every derivative and
the optimizer; its QR alone decides that the product has no usable basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .projectors import orthonormal_columns
from .spectral import FilterSpectrum, SensorSet, _filter_values, _require_same_grid

# Slack for the [0, 1] range check; violations beyond this indicate a bug,
# not round-off.
RANGE_TOL = 1e-12


@dataclass(frozen=True)
class VoraValue:
    """Raw metric value plus a clamped view for reporting.

    Tests and numerics should use ``raw``; user-facing output uses ``value``
    so that harmless round-off like 1+2e-16 prints as 1.0.
    """

    raw: float

    def __post_init__(self) -> None:
        if not (-RANGE_TOL <= self.raw <= 1.0 + RANGE_TOL):
            raise ValueError(f"Vora-Value {self.raw!r} outside [0, 1] tolerance")

    @property
    def value(self) -> float:
        return min(max(self.raw, 0.0), 1.0)

    def __float__(self) -> float:
        return self.raw


def _filtered_basis(camera: SensorSet, f: NDArray[np.float64]) -> NDArray[np.float64]:
    """The basis ``W`` of ``diag(f) Q`` for a checked filter ``f``, or the
    stack of them for filters ``(..., n)``. A product that is rank deficient
    or overflows, in itself or in its QR, raises from the QR."""
    with np.errstate(over="ignore"):
        return orthonormal_columns(f[..., :, None] * camera.responses)


def _vora_of_bases(w: NDArray[np.float64],
                   v: NDArray[np.float64]) -> float | NDArray[np.float64]:
    """Value from orthonormal bases of the camera-like and observer spaces;
    a stack of bases ``w`` (..., n, 3) gives the array of their values."""
    values = np.sum((w.swapaxes(-1, -2) @ v) ** 2, axis=(-2, -1)) / 3.0
    return float(values) if w.ndim == 2 else values


def vora_value(camera: SensorSet, observer: SensorSet) -> VoraValue:
    """Similarity of the camera and observer sensor spaces, in [0, 1]."""
    _require_same_grid(camera.grid, observer.grid)
    return VoraValue(_vora_of_bases(camera.basis, observer.basis))


def filtered_vora_value(camera: SensorSet, observer: SensorSet,
                        filt: FilterSpectrum | NDArray[np.float64]
                        ) -> VoraValue | NDArray[np.float64]:
    """Vora-Value of the effective camera seen through a transmissive filter.

    The effective sensitivities are the camera's, scaled per wavelength by
    the filter transmittance. A unit filter reproduces :func:`vora_value`
    bit for bit.

    ``filt`` may also be an (m, n) array of transmittances, one filter per
    row, each checked as :class:`FilterSpectrum` checks one (its box aside).
    The result is then the array of the m raw values, each bit for bit the
    ``raw`` of its row evaluated alone, from one stacked QR.
    """
    _require_same_grid(camera.grid, observer.grid)
    f = _filter_values(filt, camera.grid)
    raw = _vora_of_bases(_filtered_basis(camera, f), observer.basis)
    if isinstance(filt, FilterSpectrum):
        return VoraValue(raw)
    if not np.all((-RANGE_TOL <= raw) & (raw <= 1.0 + RANGE_TOL)):
        raise ValueError("a Vora-Value of the stack is outside [0, 1] tolerance")
    return raw
