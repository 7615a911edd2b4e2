"""Exception taxonomy shared by all modules.

Every error raised on purpose derives from MhdLabError, so callers (and the
CLI) can translate failures into exit statuses without string matching.
"""

from __future__ import annotations


class MhdLabError(Exception):
    """Base class for all deliberate failures."""


class ConfigurationError(MhdLabError):
    """Invalid user-supplied configuration or arguments."""


class ShapeError(MhdLabError):
    """Fields or operators on mismatched grids / incompatible shapes."""


class GeometryError(MhdLabError):
    """Subdomain decomposition cannot be built as requested."""


class ResolutionError(GeometryError):
    """Grid too coarse for the requested transition layers."""


class WeightConstructionError(GeometryError):
    """Carleman weight failed its convexity or gradient positivity check."""


class EquilibriumError(MhdLabError):
    """Manufactured equilibrium rejected (constraint violated after projection)."""


class NumericalError(MhdLabError):
    """A linear solve or eigensolve did not converge to tolerance."""

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


class AssemblyError(MhdLabError):
    """Operator assembly produced non-finite entries."""


class CauchyDataError(MhdLabError):
    """Test field does not have vanishing Cauchy data where required."""


class ProjectionConditionError(MhdLabError):
    """Biorthogonal pairing of the unstable projection is too ill-conditioned."""


class UncontrollableError(MhdLabError):
    """Kalman rank condition failed; feedback synthesis is impossible."""


class FitError(MhdLabError):
    """Decay-rate fit rejected (window too short or energies non-positive)."""
