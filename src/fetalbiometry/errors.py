"""Exception hierarchy shared across the pipeline."""


class FetalBiometryError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(FetalBiometryError, ValueError):
    """Two grids that must share dimensions do not."""


class FormatError(FetalBiometryError, ValueError):
    """A file failed to parse or violated a format invariant."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class MemberError(FetalBiometryError, ValueError):
    """Ensemble member ``index`` (from 0) failed the check that is its ``__cause__``."""

    def __init__(self, index, cause):
        super().__init__(f"member {index}: {cause}")
        self.index = index
        self.__cause__ = cause


class DegenerateInputError(FetalBiometryError, ValueError):
    """Geometric input too degenerate to process (collinear points, <5 samples...)."""


class NoEdgesError(FetalBiometryError, ValueError):
    """Edge extraction produced nothing to select from."""


class NoTangentError(FetalBiometryError, ValueError):
    """Tangent construction requested from a point inside or on the ellipse."""


class EmptyShapeError(FetalBiometryError, ValueError):
    """An operation that needs foreground pixels received an empty mask."""


class MissingStructureError(FetalBiometryError, ValueError):
    """A LabelMask lacks a required structure (PS or FH)."""

    def __init__(self, class_name):
        super().__init__(f"label mask contains no {class_name} pixels")


class OverlapError(FetalBiometryError, ValueError):
    """PS apex lies inside the fetal-head shape; the angle is undefined."""


class MetricError(FetalBiometryError, ValueError):
    """A metric is undefined for the given input (single-class AUC, empty masks...)."""


class InfeasiblePerturbationError(FetalBiometryError, ValueError):
    """Requested phantom perturbation cannot be placed on the structure."""
