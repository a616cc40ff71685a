"""Exception hierarchy.

Three branches map onto the CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""


class BoldkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(BoldkitError):
    """Invalid configuration (bad key, out-of-range parameter, missing input)."""


class DataError(BoldkitError):
    """Problem with input data (files, shapes, masks, designs)."""


class FormatError(DataError):
    """Malformed file: wrong header size, bad magic, inconsistent fields."""


class UnsupportedDatatypeError(FormatError):
    """File uses a voxel datatype the reader does not handle."""

    def __init__(self, code):
        self.code = int(code)
        super().__init__(f"unsupported NIfTI datatype code {self.code}")


class TruncatedFileError(FormatError):
    """Data section shorter than the header promises."""


class ShapeError(DataError):
    """Array dimensions do not match what the operation requires."""


class EmptyMaskError(DataError):
    """A mask that must select at least one voxel selects none."""


class OutOfRangeError(DataError):
    """Task blocks or indices fall outside the sampled window."""


class InsufficientDataError(DataError):
    """Too few time points for the requested operation."""


class DegreesOfFreedomError(DataError):
    """No residual degrees of freedom left for inference."""


class InestimableContrastError(DataError):
    """Contrast vector lies outside the row space of a rank-deficient design."""


class DegenerateRegressorError(DataError):
    """Regressor is constant and carries no information."""


class NumericError(BoldkitError):
    """Non-finite values or failed numerical evaluation."""
