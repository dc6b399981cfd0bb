"""Exception hierarchy shared across the solver modules.

Each class names a failure that a run or a CLI command can meet, and cli.main
maps it to one exit code; a misused function argument raises ValueError.
"""


class Euler2DError(Exception):
    """Base class for all solver errors."""


class ConfigError(Euler2DError):
    """Invalid or inconsistent run configuration or input file."""


class NumericalError(Euler2DError):
    """NaN/Inf or overflow encountered; the message names the failing stage."""


class StepTooLargeError(Euler2DError):
    """Displacement exceeds half a period; the time step must shrink."""


class ReversionError(Euler2DError):
    """Cascade interpolation back to the uniform grid failed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InsufficientDataError(Euler2DError):
    """Too few points for the requested fit or estimate."""
