"""Exception hierarchy shared across the solver modules."""


class Euler2DError(Exception):
    """Base class for all solver errors."""


class ConfigError(Euler2DError):
    """Invalid or inconsistent run configuration."""


class SymmetryError(Euler2DError):
    """Spectral field violates the Hermitian symmetry required of real data."""


class LayoutError(Euler2DError):
    """Spectral array not in the (..., n, n//2+1) half-spectrum layout."""


class ArityError(Euler2DError):
    """Scalar operation applied to a vector field or vice versa."""


class NonzeroMeanError(Euler2DError):
    """Vorticity with a nonzero spatial mean; impossible on the torus."""


class NumericalError(Euler2DError):
    """NaN/Inf or overflow encountered; the message names the failing stage."""


class StateError(Euler2DError):
    """Operation invoked on an incompletely populated object."""


class StepTooLargeError(Euler2DError):
    """Displacement exceeds half a period; the time step must shrink."""


class ReversionError(Euler2DError):
    """Cascade interpolation back to the uniform grid failed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InsufficientDataError(Euler2DError):
    """Too few points for the requested fit or estimate."""
