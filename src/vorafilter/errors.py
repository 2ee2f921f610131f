"""Exception types raised across the package.

Everything derives from :class:`VoraFilterError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish data problems from numerical ones.
"""

from __future__ import annotations


class VoraFilterError(Exception):
    """Base class for all errors raised by this package."""


class MalformedCsv(VoraFilterError):
    """CSV input has a bad header, wrong row arity, or a non-numeric cell."""


class DuplicateWavelength(VoraFilterError):
    """Two rows of a spectral CSV share the same wavelength."""


class UnsortedWavelength(VoraFilterError):
    """Spectral CSV rows are not in ascending wavelength order."""


class InsufficientCoverage(VoraFilterError):
    """Target grid extends beyond the wavelength range of the source data."""


class RankDeficient(VoraFilterError):
    """A sensor matrix does not have full column rank."""


class GridMismatch(VoraFilterError):
    """Operands live on different wavelength grids."""


class NonPositiveFilter(VoraFilterError):
    """A filter transmittance vector has an entry that is not strictly positive."""


class ShapeMismatch(VoraFilterError):
    """Array arguments do not conform in shape."""


class StepTooLarge(VoraFilterError):
    """A finite-difference perturbation would leave the positive region."""


class BadBasisSpec(VoraFilterError):
    """Unknown basis kind or an invalid basis size."""


class SingularSystem(VoraFilterError):
    """The regularized Newton system could not be solved."""


class NoAscent(VoraFilterError):
    """The first optimizer iteration found no improving step."""
