"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatchError(SimulationError):
    """Inputs that must agree in shape do not."""


class DomainError(SimulationError, ValueError):
    """A numeric argument lies outside its valid domain."""


class FeasibilityError(SimulationError):
    """The power constraints cannot be satisfied (or a solver broke them)."""


class SceneLoadError(SimulationError):
    """Base class for distance-matrix ingestion problems."""


class SceneParseError(SceneLoadError):
    """The scene file could not be parsed."""


class AsymmetryError(SceneLoadError):
    """A distance matrix is asymmetric beyond tolerance."""


class PositivityError(SceneLoadError):
    """A distance matrix has a nonpositive off-diagonal entry."""


class PackingError(SimulationError):
    """Random placement could not satisfy the minimum separation."""
