"""Vora-Value evaluation and colorimetric prefilter design.

The package models how similarly a camera and a human observer sample
spectra (the Vora-Value), provides the analytic gradient and Hessian of
that similarity with respect to a per-wavelength prefilter, and optimizes
physically plausible filters by projected gradient ascent or a regularized
Newton method. All public containers are immutable and every function here
is pure, so evaluations may run concurrently without coordination; the
derivatives are plain ndarrays, freshly allocated by each call.
"""

from .calculus import (
    BasisSet,
    fd_gradient,
    fd_hessian,
    gradient,
    gradient_in_basis,
    hessian,
    hessian_in_basis,
    make_basis,
    newton_step,
)
from .errors import (
    BadBasisSpec,
    DuplicateWavelength,
    GridMismatch,
    InsufficientCoverage,
    MalformedCsv,
    NoAscent,
    NonPositiveFilter,
    RankDeficient,
    ShapeMismatch,
    SingularSystem,
    StepTooLarge,
    UnsortedWavelength,
    VoraFilterError,
)
from .optimize import (
    IterationRecord,
    OptimizationReport,
    OptimizerConfig,
    optimize,
)
from .spectral import (
    DEFAULT_GRID,
    FilterSpectrum,
    SensorSet,
    SpectralTable,
    WavelengthGrid,
    format_spectral_csv,
    gaussian_camera,
    load_filter_spectrum,
    load_sensor_set,
    parse_spectral_csv,
    resample_to_grid,
    write_filter_csv,
)
from .vora import VoraValue, filtered_vora_value, vora_value

__version__ = "0.1.0"

__all__ = [
    "BadBasisSpec",
    "BasisSet",
    "DEFAULT_GRID",
    "DuplicateWavelength",
    "FilterSpectrum",
    "GridMismatch",
    "InsufficientCoverage",
    "IterationRecord",
    "MalformedCsv",
    "NoAscent",
    "NonPositiveFilter",
    "OptimizationReport",
    "OptimizerConfig",
    "RankDeficient",
    "SensorSet",
    "ShapeMismatch",
    "SingularSystem",
    "SpectralTable",
    "StepTooLarge",
    "UnsortedWavelength",
    "VoraFilterError",
    "VoraValue",
    "WavelengthGrid",
    "fd_gradient",
    "fd_hessian",
    "filtered_vora_value",
    "format_spectral_csv",
    "gaussian_camera",
    "gradient",
    "gradient_in_basis",
    "hessian",
    "hessian_in_basis",
    "load_filter_spectrum",
    "load_sensor_set",
    "make_basis",
    "newton_step",
    "optimize",
    "parse_spectral_csv",
    "resample_to_grid",
    "vora_value",
    "write_filter_csv",
]
