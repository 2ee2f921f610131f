"""Spectral data containers, CSV ingestion, and grid resampling.

All downstream math operates on a shared :class:`WavelengthGrid`. Input
tables may come at any (sorted, duplicate-free) wavelength spacing; they are
linearly interpolated onto the grid at load time. Wavelengths outside the
grid are discarded, never extrapolated. Containers are immutable after
construction and safe to share between threads. A filter argument is
checked here; :mod:`vorafilter.vora` turns it into the filtered camera's basis.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DuplicateWavelength,
    GridMismatch,
    InsufficientCoverage,
    MalformedCsv,
    NonPositiveFilter,
    RankDeficient,
    UnsortedWavelength,
)
from .projectors import orthonormal_columns

# Physical transmittance box used when a filter does not carry its own.
DEFAULT_TAU_MIN = 1e-4
DEFAULT_TAU_MAX = 1.0

# Slack for "source range covers the grid" comparisons, in nanometers.
_COVERAGE_EPS = 1e-9


def _readonly(arr: NDArray[np.float64]) -> NDArray[np.float64]:
    arr.setflags(write=False)
    return arr


def _is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a ``bool`` is an
    ``int`` to ``isinstance``, but never a count, a size or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class WavelengthGrid:
    """Uniform sampling lattice: ``count`` samples from ``start_nm`` in steps of ``step_nm``."""

    start_nm: float = 400.0
    step_nm: float = 10.0
    count: int = 31

    def __post_init__(self) -> None:
        if not np.isfinite(self.start_nm):
            raise ValueError("start_nm must be finite")
        if not 0.0 < self.step_nm < np.inf:
            raise ValueError("step_nm must be positive and finite")
        if not _is_integer(self.count) or self.count < 4:
            raise ValueError(f"count must be an integer of at least 4, got {self.count!r}")

    @property
    def end_nm(self) -> float:
        return self.start_nm + self.step_nm * (self.count - 1)

    @property
    def wavelengths(self) -> NDArray[np.float64]:
        """Sample positions in nanometers (fresh array on every access)."""
        return self.start_nm + self.step_nm * np.arange(self.count, dtype=np.float64)


DEFAULT_GRID = WavelengthGrid()


@dataclass(frozen=True, eq=False)
class SensorSet:
    """Three-channel sensor responses sampled on a wavelength grid.

    ``responses`` is n-by-3 with one column per channel; entries may be
    negative (color matching functions obtained by linear transform are).
    The matrix must have full column rank: a rank-deficient sensor set spans
    a degenerate color space and every projector built from it is undefined.
    The rank is checked by the QR that builds ``basis``, the read-only
    orthonormal basis of the responses that every evaluation uses.
    """

    grid: WavelengthGrid
    responses: NDArray[np.float64]
    channel_names: tuple[str, str, str] = ("c1", "c2", "c3")
    basis: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.responses, dtype=np.float64, copy=True)
        if arr.shape != (self.grid.count, 3):
            raise ValueError(
                f"responses must be {self.grid.count}x3, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("responses must be finite")
        try:
            basis = orthonormal_columns(arr)
        except RankDeficient:
            raise RankDeficient("sensor responses have numerical rank < 3") from None
        names = tuple(str(n) for n in self.channel_names)
        if len(names) != 3:
            raise ValueError("exactly three channel names required")
        object.__setattr__(self, "responses", _readonly(arr))
        object.__setattr__(self, "basis", _readonly(basis))
        object.__setattr__(self, "channel_names", names)


def _check_transmittance(arr: NDArray[np.float64]) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError("transmittance must be finite")
    if np.any(arr <= 0.0):
        raise NonPositiveFilter("filter transmittance must be strictly positive")


@dataclass(frozen=True, eq=False)
class FilterSpectrum:
    """Per-wavelength transmittance, boxed to a physical range.

    Strict positivity is mandatory: the math places the filter on the
    diagonal of a matrix that must stay invertible.
    """

    grid: WavelengthGrid
    transmittance: NDArray[np.float64]
    tau_min: float = DEFAULT_TAU_MIN
    tau_max: float = DEFAULT_TAU_MAX

    def __post_init__(self) -> None:
        if not (0.0 < self.tau_min <= self.tau_max):
            raise ValueError("need 0 < tau_min <= tau_max")
        arr = np.array(self.transmittance, dtype=np.float64, copy=True)
        if arr.shape != (self.grid.count,):
            raise ValueError(
                f"transmittance must have length {self.grid.count}, got {arr.shape}"
            )
        _check_transmittance(arr)
        if np.any(arr < self.tau_min) or np.any(arr > self.tau_max):
            raise ValueError(
                f"transmittance outside [{self.tau_min}, {self.tau_max}]"
            )
        object.__setattr__(self, "transmittance", _readonly(arr))

    @classmethod
    def ones(cls, grid: WavelengthGrid) -> "FilterSpectrum":
        """The neutral filter (transmits everything)."""
        return cls(grid, np.ones(grid.count))


def _require_same_grid(*grids: WavelengthGrid) -> None:
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise GridMismatch(f"wavelength grids differ: {g} vs {first}")


def _filter_values(filt: FilterSpectrum | NDArray[np.float64],
                   grid: WavelengthGrid | None = None) -> NDArray[np.float64]:
    """The transmittance values of a filter argument, checked once; every
    public call that takes a filter reads it here or through
    :func:`_single_filter_values`.

    A :class:`FilterSpectrum` gives its transmittance, which must be on
    ``grid`` when one is given. An array must be finite and strictly
    positive, as a :class:`FilterSpectrum` is (its box aside); with a grid
    it must be an (m, n) stack of filters on it, ``n = grid.count``.
    """
    if isinstance(filt, FilterSpectrum):
        if grid is not None:
            _require_same_grid(grid, filt.grid)
        return filt.transmittance
    arr = np.asarray(filt, dtype=np.float64)
    if grid is not None and (arr.ndim != 2 or arr.shape[1] != grid.count):
        raise ValueError(f"a filter stack must be m x {grid.count}, got {arr.shape}")
    _check_transmittance(arr)
    return arr


def _single_filter_values(filt: FilterSpectrum, grid: WavelengthGrid) -> NDArray[np.float64]:
    """:func:`_filter_values` of the one :class:`FilterSpectrum` a call
    takes; an array is a stack of filters, and raises ``TypeError``."""
    if not isinstance(filt, FilterSpectrum):
        raise TypeError(f"expected a FilterSpectrum, got {type(filt).__name__}; "
                        "only filtered_vora_value and gradient take an array stack")
    return _filter_values(filt, grid)


class SpectralTable(NamedTuple):
    """Raw parsed CSV content, exactly as given (not resampled)."""

    wavelengths: NDArray[np.float64]
    values: NDArray[np.float64]
    channel_names: tuple[str, ...]


def parse_spectral_csv(text: str, expected_channels: int) -> SpectralTable:
    """Parse a spectral CSV with header ``wavelength,<c1>[,<c2>,...]``.

    A leading UTF-8 byte-order mark (as spreadsheet exports write) is
    dropped. Comment lines starting with ``#`` and blank lines are skipped.
    Rows must be sorted ascending by wavelength with no duplicates. Returns
    the raw samples without resampling.
    """
    text = text.removeprefix("\ufeff")
    header: list[str] | None = None
    wavelengths: list[float] = []
    rows: list[list[float]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != expected_channels + 1:
            raise MalformedCsv(f"line {lineno}: {'header' if header is None else 'row'} "
                               f"has {len(fields)} columns, expected {expected_channels + 1}")
        if header is None:
            if fields[0].lower() != "wavelength":
                raise MalformedCsv(
                    f"line {lineno}: first header column must be 'wavelength', "
                    f"got {fields[0]!r}"
                )
            header = fields
            continue
        try:
            numbers = [float(f) for f in fields]
        except ValueError as exc:
            raise MalformedCsv(f"line {lineno}: non-numeric cell ({exc})") from None
        if not all(map(math.isfinite, numbers)):
            raise MalformedCsv(f"line {lineno}: non-finite value")
        if wavelengths:
            if numbers[0] == wavelengths[-1]:
                raise DuplicateWavelength(
                    f"line {lineno}: duplicate wavelength {numbers[0]:g}"
                )
            if numbers[0] < wavelengths[-1]:
                raise UnsortedWavelength(
                    f"line {lineno}: wavelength {numbers[0]:g} after {wavelengths[-1]:g}"
                )
        wavelengths.append(numbers[0])
        rows.append(numbers[1:])
    if header is None:
        raise MalformedCsv("no header row found")
    if not rows:
        raise MalformedCsv("no data rows found")
    return SpectralTable(
        wavelengths=_readonly(np.asarray(wavelengths, dtype=np.float64)),
        values=_readonly(np.asarray(rows, dtype=np.float64)),
        channel_names=tuple(header[1:]),
    )


def _table_columns(wavelengths: NDArray[np.float64], values: NDArray[np.float64]
                   ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """A table's wavelengths and value columns, checked as :func:`parse_spectral_csv`
    checks its rows: at least one, finite, wavelengths strictly increasing."""
    w = np.asarray(wavelengths, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    if w.ndim != 1 or v.shape[0] != w.shape[0]:
        raise ValueError("values rows must match wavelengths")
    if w.size == 0:
        raise ValueError("no source samples to resample")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise ValueError("source wavelengths and values must be finite")
    if np.any(np.diff(w) <= 0):
        raise UnsortedWavelength("source wavelengths must be strictly increasing")
    return w, v


def format_spectral_csv(
    wavelengths: NDArray[np.float64],
    values: NDArray[np.float64],
    channel_names: tuple[str, ...] | list[str],
) -> str:
    """Render a spectral table as CSV text; numeric round trip is exact.

    Values are written with 17 significant digits, which reproduces every
    float64 bit-for-bit when parsed back; a table the parser rejects raises.
    """
    w, v = _table_columns(wavelengths, values)
    if len(channel_names) != v.shape[1]:
        raise ValueError(f"{len(channel_names)} channel names for {v.shape[1]} value columns")
    for name in channel_names:
        # The parser splits the header at commas and lines at line breaks,
        # and strips each field.
        if "," in name or "".join(name.splitlines()).strip() != name:
            raise ValueError(f"channel name {name!r} holds a comma, a line break "
                             "or surrounding whitespace")
    lines = ["wavelength," + ",".join(channel_names)]
    for i in range(w.shape[0]):
        cells = [f"{w[i]:.17g}"] + [f"{x:.17g}" for x in v[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def resample_to_grid(
    wavelengths: NDArray[np.float64],
    values: NDArray[np.float64],
    grid: WavelengthGrid,
) -> NDArray[np.float64]:
    """Linearly interpolate columns of ``values`` onto the grid.

    Source samples that coincide with grid points pass through exactly.
    Raises :class:`InsufficientCoverage` if the grid extends beyond the
    source range; data outside the grid is simply unused.
    """
    w, v = _table_columns(wavelengths, values)
    if grid.start_nm < w[0] - _COVERAGE_EPS or grid.end_nm > w[-1] + _COVERAGE_EPS:
        raise InsufficientCoverage(
            f"grid [{grid.start_nm:g}, {grid.end_nm:g}] nm not covered by "
            f"source [{w[0]:g}, {w[-1]:g}] nm"
        )
    targets = grid.wavelengths
    out = np.empty((grid.count, v.shape[1]), dtype=np.float64)
    for j in range(v.shape[1]):
        out[:, j] = np.interp(targets, w, v[:, j])
    return out


def load_sensor_set(path: str | os.PathLike[str],
                    grid: WavelengthGrid = DEFAULT_GRID) -> SensorSet:
    """Read a three-channel spectral CSV and resample it onto ``grid``."""
    table = parse_spectral_csv(Path(path).read_text(encoding="utf-8"), expected_channels=3)
    resampled = resample_to_grid(table.wavelengths, table.values, grid)
    return SensorSet(grid=grid, responses=resampled, channel_names=table.channel_names)


def load_filter_spectrum(path: str | os.PathLike[str],
                         grid: WavelengthGrid = DEFAULT_GRID,
                         tau_min: float = DEFAULT_TAU_MIN,
                         tau_max: float = DEFAULT_TAU_MAX) -> FilterSpectrum:
    """Read a ``wavelength,transmittance`` CSV and resample it onto ``grid``."""
    table = parse_spectral_csv(Path(path).read_text(encoding="utf-8"), expected_channels=1)
    resampled = resample_to_grid(table.wavelengths, table.values, grid)
    return FilterSpectrum(grid=grid, transmittance=resampled[:, 0],
                          tau_min=tau_min, tau_max=tau_max)


def write_filter_csv(path: str | os.PathLike[str], filt: FilterSpectrum) -> None:
    text = format_spectral_csv(filt.grid.wavelengths, filt.transmittance, ("transmittance",))
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def gaussian_camera(grid: WavelengthGrid = DEFAULT_GRID) -> SensorSet:
    """Synthetic camera with one Gaussian sensitivity lobe per channel: at
    450, 550 and 600 nm, 30 nm wide."""
    lam = grid.wavelengths
    cols = [np.exp(-0.5 * ((lam - mu) / 30.0) ** 2) for mu in (450.0, 550.0, 600.0)]
    return SensorSet(grid=grid, responses=np.column_stack(cols),
                     channel_names=("b", "g", "r"))
