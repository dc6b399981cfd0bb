"""2D incompressible Euler solver with Lagrangian time-Taylor stepping."""

from . import diagnostics, eulerian, interpolation, lagrangian, runner, spectral

__version__ = "0.1.0"

__all__ = [
    "diagnostics",
    "eulerian",
    "interpolation",
    "lagrangian",
    "runner",
    "spectral",
]
