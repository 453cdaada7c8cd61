"""Exception types shared across the package, the integer rule that every
config applies to its counts and seeds, and the finiteness and variance
rules that every reported statistic obeys."""

import math
from numbers import Integral

import numpy as np


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


def is_integer(value) -> bool:
    """An integer, numpy integers included and bool not; a float count would
    fail inside the solve or act as the next integer up."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_integers(cfg, *fields: str, least: int | None = None) -> None:
    """The fields must hold integers, by is_integer, and none below least."""
    for name in fields:
        value = getattr(cfg, name)
        if not is_integer(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise DomainError(f"{name} must be at least {least}")


def check_finite(name: str, value) -> float:
    """value as a float; a statistic past the float range is an error, never
    an inf or NaN in a record."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows the float range")
    return value


def variance(values: np.ndarray) -> float:
    """Population variance of a flat array: exactly 0.0 where every value is
    equal, not the mean's rounding (~1e-34); inf or NaN past the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.0 if values.max() == values.min() else float(values.var())
