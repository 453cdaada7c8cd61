"""Exception types shared across the package, and the integer rule that
every config applies to its counts and seeds."""

from numbers import Integral


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


def check_integers(cfg, *fields: str) -> None:
    """The fields must hold integers, numpy integers included and bool not;
    a float count would fail inside the solve or act as the next integer up."""
    for name in fields:
        value = getattr(cfg, name)
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
