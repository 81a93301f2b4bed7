"""Exception types shared across the package."""


class CutDGError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CutDGError):
    """Invalid run configuration or degenerate geometry."""


class MeshValidationError(CutDGError):
    """A constructed mesh violates a structural rule (e.g. adjacent small cells)."""


class UnsupportedConfigurationError(CutDGError):
    """A geometric situation the stabilization does not define (reported, never guessed)."""


class AdjacentSmallCellsError(MeshValidationError):
    """Two small cells share a face."""


class CornerCellError(UnsupportedConfigurationError):
    """An acoustic stabilized cell has two boundary faces."""


class BoundaryInflowError(UnsupportedConfigurationError):
    """An advection stabilized cell's inflow face lies on the physical boundary."""


class InflowCountError(UnsupportedConfigurationError):
    """An advection stabilized cell has no inflow face or more than one."""


class SingularMassError(CutDGError):
    """A cut cell's mass matrix does not factor."""


class UnsupportedOperationError(CutDGError):
    """Operation not defined for the given system (e.g. mirroring a scalar state)."""


class IntegrationFailureError(CutDGError):
    """Time integration produced non-finite values."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite state detected at step {step}")
