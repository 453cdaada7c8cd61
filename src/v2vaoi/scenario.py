"""Scene construction: distance matrices from files or synthetic placement.

File formats (comments start with '#', blank lines ignored):

  Matrix form - an optional first line holding the vehicle count, then one
  row per line, entries separated by whitespace or commas:

      3
      0 10 20
      10 0 15
      20 15 0

  Coordinate form - the literal word "coords" on the first data line, then
  one "x y" pair per line in meters; distances are computed pairwise:

      coords
      0.0 0.0
      3.0 4.0
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .channel import MAX_VEHICLES, DistanceMatrix
from .errors import DomainError, PackingError, SceneParseError, check_integers

_SPLIT = re.compile(r"[,\s]+")

_MAX_PLACEMENT_ATTEMPTS = 10_000


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one random scene.

    Vehicles are placed uniformly at random in a square box, rejecting draws
    closer than min_separation_m to an existing vehicle.  Fixed placements
    come from a coords scene file instead (load_distance_matrix).
    """

    n_vehicles: int
    box_side_m: float = 100.0
    min_separation_m: float = 5.0
    rng_seed: int = 0

    def __post_init__(self):
        check_integers(self, "n_vehicles")
        check_integers(self, "rng_seed", least=0)
        if self.n_vehicles < 2:
            raise DomainError("need at least 2 vehicles")
        if self.n_vehicles > MAX_VEHICLES:
            raise DomainError(f"supported scale is n <= {MAX_VEHICLES}")
        if not (self.min_separation_m > 0):
            raise DomainError("min_separation_m must be positive")
        if not (2 * self.min_separation_m < self.box_side_m < math.inf):
            raise DomainError(
                "box_side_m must be finite and exceed twice min_separation_m"
            )


def _distances_from_coords(coords: np.ndarray) -> DistanceMatrix:
    # an out-of-range distance is left to DistanceMatrix's non-finite check
    with np.errstate(over="ignore", invalid="ignore"):
        diff = coords[:, np.newaxis, :] - coords[np.newaxis, :, :]
        d = np.sqrt((diff**2).sum(axis=-1))
    return DistanceMatrix(d)


def generate_scene(spec: ScenarioSpec):
    """Produce a scene's distance matrix plus the coordinates behind it.

    What a seed reproduces is this draw order: each placement attempt draws
    two uniforms on [0, box_side_m), x then y, from default_rng(rng_seed).
    The candidate is accepted when it lies at least min_separation_m from
    every vehicle placed so far, and becomes the next vehicle.  Raises
    PackingError once 10,000 attempts have not placed all vehicles.
    """
    n = spec.n_vehicles
    rng = np.random.default_rng(spec.rng_seed)
    coords = np.empty((n, 2))
    placed = 0
    attempts = 0
    while placed < n:
        attempts += 1
        if attempts > _MAX_PLACEMENT_ATTEMPTS:
            raise PackingError(
                f"could not place {n} vehicles at "
                f"{spec.min_separation_m} m separation in a "
                f"{spec.box_side_m} m box after {_MAX_PLACEMENT_ATTEMPTS} attempts"
            )
        candidate = rng.uniform(0.0, spec.box_side_m, size=2)
        gap = candidate - coords[:placed]
        if (np.hypot(gap[:, 0], gap[:, 1]) >= spec.min_separation_m).all():
            coords[placed] = candidate
            placed += 1
    return _distances_from_coords(coords), coords


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _parse_floats(line: str, path) -> list:
    try:
        return [float(tok) for tok in _SPLIT.split(line) if tok]
    except ValueError as exc:
        raise SceneParseError(f"{path}: bad numeric token in line {line!r}") from exc


def load_distance_matrix(path) -> DistanceMatrix:
    """Read a scene file in either supported form and validate it.

    Symmetry is enforced to 1e-9 m and all off-diagonal entries must be
    positive; violations raise AsymmetryError / PositivityError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(_data_lines(fh.read()))
    except OSError as exc:
        raise SceneParseError(f"cannot read scene file {path}: {exc}") from exc
    if not lines:
        raise SceneParseError(f"{path}: no data lines")

    if lines[0].lower() == "coords":
        rows = [_parse_floats(line, path) for line in lines[1:]]
        if len(rows) < 2 or any(len(r) != 2 for r in rows):
            raise SceneParseError(f"{path}: coordinate lines must hold exactly x y")
        return _distances_from_coords(np.array(rows))

    rows = [_parse_floats(line, path) for line in lines]
    if len(rows[0]) == 1:  # header line with the vehicle count
        declared = rows[0][0]
        if not (math.isfinite(declared) and declared == int(declared)):
            raise SceneParseError(f"{path}: header count {declared!r} is not an integer")
        rows = rows[1:]
        if len(rows) != int(declared):
            raise SceneParseError(
                f"{path}: header declares {int(declared)} rows, found {len(rows)}"
            )
    n = len(rows)
    if n < 2 or any(len(r) != n for r in rows):
        raise SceneParseError(f"{path}: expected a square matrix, got ragged rows")
    return DistanceMatrix(np.array(rows))


def save_distance_matrix(dist: DistanceMatrix, path) -> None:
    """Write the matrix form with full float64 precision (round-trips bit-exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{dist.n}\n")
        for row in dist.d:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")
