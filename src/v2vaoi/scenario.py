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
from .errors import DomainError, PackingError, PositivityError, SceneParseError, check_integers

_SPLIT = re.compile(r"[,\s]+")

_MAX_PLACEMENT_ATTEMPTS = 10_000

# generate_scene draws at least this many candidates per block, so a crowded
# box that rejects most of them still makes few uniform calls; the
# candidates a finished placement leaves unread cost nothing but the draw.
_MIN_PLACEMENT_BLOCK = 16


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


def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) of every pair of (x, y) rows: the bits of
    sqrt((diff**2).sum(-1)) on the (n, n, 2) differences, without them."""
    x, y = coords[:, 0], coords[:, 1]
    # an out-of-range distance is left to the caller's checks
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x[:, np.newaxis] - x
        dy = y[:, np.newaxis] - y
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)


def generate_scene(spec: ScenarioSpec):
    """Produce a scene's distance matrix plus the coordinates behind it.

    What a seed reproduces is this draw order: each placement attempt draws
    two uniforms on [0, box_side_m), x then y, from default_rng(rng_seed).
    The candidate is accepted when it lies at least min_separation_m (by
    np.hypot) from every vehicle placed so far, and becomes the next
    vehicle.  Raises PackingError once 10,000 attempts have not placed all
    vehicles, and DomainError, naming box_side_m and min_separation_m, when
    a placement so accepted has a distance that under- or overflows.

    The attempts are drawn in blocks of k candidates, one uniform call of
    shape (k, 2) each, which is the same stream as one pair per attempt.
    k is the number of vehicles still to place, at least
    _MIN_PLACEMENT_BLOCK, and never reaches past the 10,000th attempt.  A
    block's candidates are accepted in order, against the vehicles placed
    before it and the candidates accepted earlier in it, until the last
    vehicle is placed; so the scene, and the attempt at which PackingError
    is raised, are those of a loop of single attempts.
    """
    n = spec.n_vehicles
    sep = spec.min_separation_m
    rng = np.random.default_rng(spec.rng_seed)
    coords = np.empty((n, 2))
    placed = 0
    attempts = 0
    # past the float maximum over sqrt(2) a candidate distance overflows to
    # inf, which clears sep; DistanceMatrix below refuses it by name
    with np.errstate(over="ignore"):
        while placed < n:
            if attempts == _MAX_PLACEMENT_ATTEMPTS:
                raise PackingError(
                    f"could not place {n} vehicles at "
                    f"{sep} m separation in a "
                    f"{spec.box_side_m} m box after {_MAX_PLACEMENT_ATTEMPTS} attempts"
                )
            k = min(max(n - placed, _MIN_PLACEMENT_BLOCK), _MAX_PLACEMENT_ATTEMPTS - attempts)
            block = rng.uniform(0.0, spec.box_side_m, size=(k, 2))
            attempts += k
            bx, by = block[:, 0:1], block[:, 1:2]
            prior = coords[:placed]
            clear = (np.hypot(bx - prior[:, 0], by - prior[:, 1]) >= sep).all(axis=1)
            # too_near[a, b]: candidate a lies closer than sep to candidate b
            too_near = np.hypot(bx - block[:, 0], by - block[:, 1]) < sep
            blocked = np.zeros(k, dtype=bool)
            for c in clear.nonzero()[0].tolist():
                if not blocked[c]:
                    coords[placed] = block[c]
                    placed += 1
                    if placed == n:
                        break
                    blocked |= too_near[:, c]
    try:
        # only a distance that under- or overflows fails these checks
        return DistanceMatrix(_pairwise_distances(coords)), coords
    except (DomainError, PositivityError) as exc:
        raise DomainError(
            f"box_side_m {spec.box_side_m!r} and min_separation_m {sep!r} "
            f"put a distance between vehicles out of float range"
        ) from exc


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
        return DistanceMatrix(_pairwise_distances(np.array(rows)))

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
