"""Interference-limited link model for a shared vehicle-to-vehicle channel.

Every vehicle may address every other vehicle on the same channel, so the
power spent on one link shows up as interference on every other link into
the same receiver.  This module evaluates the per-link SNR under that mutual
interference and the Shannon-rate transmission delay that follows from it.

All operations are pure functions; the value types are frozen dataclasses
holding read-only float64 arrays, safe to share across threads.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryError,
    DimensionMismatchError,
    DomainError,
    PositivityError,
)

# Dense float64 matrices; scenes beyond this size are out of scope.
MAX_VEHICLES = 64

# Floor applied to off-diagonal SNR before the rate log so delays stay finite
# even for pathological inputs.
SNR_FLOOR = 1e-300

_LN2 = float(np.log(2.0))

SYMMETRY_TOL_M = 1e-9


class SnrClampWarning(UserWarning):
    """An off-diagonal SNR below SNR_FLOOR was clamped before the rate log."""


def offdiag_mask(n: int) -> np.ndarray:
    """Boolean mask selecting the ordered pairs i != j."""
    return ~np.eye(n, dtype=bool)


def offdiag_values(m: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of a square matrix, row-major order.

    Every aggregate in this package (min, max, mean, variance, RMSE) runs
    over these entries only; diagonals are conventions, not data.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m[offdiag_mask(m.shape[0])]


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def _check_square(a: np.ndarray, what: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got shape {a.shape}")
    n = a.shape[0]
    if n < 2:
        raise DomainError(f"{what} needs at least 2 vehicles, got {n}")
    if n > MAX_VEHICLES:
        raise DomainError(f"{what} has {n} vehicles; supported scale is n <= {MAX_VEHICLES}")
    return n


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer constants of the shared channel.

    Attributes:
        alpha: path-loss exponent (dimensionless); received power falls as
            distance**-alpha.
        bandwidth_hz: channel bandwidth in hertz.
        noise_w: environmental noise, treated as total in-band power in watts.
        p_min_w: per-link minimum transmit power in watts.
        p_max_w: per-vehicle total power budget in watts (also the per-link cap).
        payload_bits: message size in bits; the default corresponds to a
            1.06e6-byte frame.
    """

    alpha: float = 3.0
    bandwidth_hz: float = 1.0e7
    noise_w: float = 4.14e-14
    p_min_w: float = 1.0e-6
    p_max_w: float = 23.0
    payload_bits: float = 8.48e6

    def __post_init__(self):
        if not (self.alpha > 0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not (self.bandwidth_hz > 0):
            raise DomainError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if not (self.noise_w > 0):
            raise DomainError(f"noise_w must be positive, got {self.noise_w}")
        if not (0 < self.p_min_w < self.p_max_w):
            raise DomainError(
                f"power bounds must satisfy 0 < p_min_w < p_max_w, "
                f"got ({self.p_min_w}, {self.p_max_w})"
            )
        if not (self.payload_bits > 0):
            raise DomainError(f"payload_bits must be positive, got {self.payload_bits}")


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise vehicle distances in meters for one scene.

    Symmetric, positive off the diagonal; diagonal entries are unused and
    must be zero.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.array(self.d, dtype=np.float64, order="C")
        n = _check_square(d, "distance matrix")
        if not np.all(np.isfinite(d)):
            raise DomainError("distance matrix contains non-finite entries")
        if np.max(np.abs(d - d.T)) > SYMMETRY_TOL_M:
            raise AsymmetryError(
                f"distance matrix asymmetric beyond {SYMMETRY_TOL_M} m"
            )
        if np.max(np.abs(np.diag(d))) > SYMMETRY_TOL_M:
            raise DomainError("distance matrix diagonal must be zero")
        off = d[offdiag_mask(n)]
        if np.any(off <= 0):
            raise PositivityError("off-diagonal distances must be positive")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
class PowerMatrix:
    """Directed transmit powers in watts; diagonal pinned at zero.

    Construction checks structure only (square, finite, nonnegative, zero
    diagonal).  Conformance to a ChannelParams' per-link bounds and row
    budgets is the job of allocator.check_feasible.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=np.float64, order="C")
        _check_square(p, "power matrix")
        if not np.all(np.isfinite(p)):
            raise DomainError("power matrix contains non-finite entries")
        if np.any(p < 0):
            raise DomainError("powers must be nonnegative")
        if np.any(np.diag(p) != 0.0):
            raise DomainError("power matrix diagonal must be exactly zero")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class LinkMetrics:
    """SNR and transmission delay for every directed link; diagonals unused."""

    snr: np.ndarray
    delay_s: np.ndarray

    def __post_init__(self):
        snr = np.array(self.snr, dtype=np.float64, order="C")
        delay = np.array(self.delay_s, dtype=np.float64, order="C")
        n = _check_square(snr, "SNR matrix")
        if delay.shape != snr.shape:
            raise DimensionMismatchError(
                f"SNR shape {snr.shape} != delay shape {delay.shape}"
            )
        mask = offdiag_mask(n)
        if np.any(snr[mask] <= 0):
            raise DomainError("off-diagonal SNR entries must be positive")
        dvals = delay[mask]
        if np.any(dvals <= 0) or not np.all(np.isfinite(dvals)):
            raise DomainError("off-diagonal delays must be positive and finite")
        snr.flags.writeable = False
        delay.flags.writeable = False
        object.__setattr__(self, "snr", snr)
        object.__setattr__(self, "delay_s", delay)

    @property
    def n(self) -> int:
        return self.snr.shape[0]

    def min_snr(self) -> float:
        return float(offdiag_values(self.snr).min())

    def max_delay_s(self) -> float:
        return float(offdiag_values(self.delay_s).max())


def path_loss(params: ChannelParams, dist: DistanceMatrix) -> np.ndarray:
    """Path loss D_ij**alpha of every ordered pair, as a read-only array.

    The diagonal is 1, so a zero diagonal power divides to a zero gain.
    Raises DomainError when an off-diagonal loss is 0 or infinite in
    float64: no SNR could be evaluated for such a scene.
    """
    with np.errstate(over="ignore", under="ignore"):
        loss = dist.d ** params.alpha
    np.fill_diagonal(loss, 1.0)
    # the unit diagonal is in range, so min and max test the off-diagonal
    if not (loss.min() > 0 and loss.max() < np.inf):
        d = offdiag_values(dist.d)
        raise DomainError(
            f"path loss D**alpha out of float range at alpha={params.alpha} "
            f"over distances {d.min():.3g}..{d.max():.3g} m"
        )
    loss.flags.writeable = False
    return loss


def _snr(loss: np.ndarray, powers: np.ndarray, noise_w: float) -> np.ndarray:
    """The one implementation of the SNR formula, on one (n, n) power
    matrix or a stack (m, n, n), given the path loss of the scene."""
    gain = powers / loss
    incoming = gain.sum(axis=-2, keepdims=True)  # per receiver j: sum over all transmitters
    interference = incoming - gain  # drop the k = i term
    return gain / (interference + noise_w)


def compute_snr_matrix(
    params: ChannelParams, dist: DistanceMatrix, power: PowerMatrix
) -> np.ndarray:
    """SNR of every ordered pair (i, j) under mutual interference.

    The wanted signal is the power i spends on j after path loss
    D_ij**alpha.  Everything any third vehicle transmits toward the same
    receiver j arrives as interference after its own path loss, on top of
    the noise floor.  A vehicle does not interfere with its own reception,
    and the receiver itself transmits nothing to itself, so the interference
    sum runs over k outside {i, j}.

    Returns a fresh n x n float64 array with a zero diagonal.
    """
    if dist.n != power.n:
        raise DimensionMismatchError(
            f"distance matrix is {dist.n}x{dist.n} but power matrix is {power.n}x{power.n}"
        )
    return compute_snr_batch(params, dist, power.p[np.newaxis])[0]


def compute_snr_batch(
    params: ChannelParams, dist: DistanceMatrix, powers: np.ndarray
) -> np.ndarray:
    """compute_snr_matrix over a stack of power matrices.

    powers has shape (m, n, n) with zero diagonals; returns (m, n, n).
    compute_snr_matrix runs it on a stack of one, and the population-based
    solver on whole populations.
    """
    powers = np.asarray(powers, dtype=np.float64)
    if powers.ndim != 3 or powers.shape[1:] != (dist.n, dist.n):
        raise DimensionMismatchError(
            f"expected power stack of shape (m, {dist.n}, {dist.n}), got {powers.shape}"
        )
    return _snr(path_loss(params, dist), powers, params.noise_w)


def compute_delay_matrix(params: ChannelParams, snr: np.ndarray) -> np.ndarray:
    """Transmission delay in seconds for every link: payload over Shannon rate.

    Delay is exactly linear in payload_bits and strictly decreasing in SNR.
    Off-diagonal SNR entries must be positive; entries below SNR_FLOOR are
    clamped up (with a SnrClampWarning) so the result stays finite.
    """
    snr = np.asarray(snr, dtype=np.float64)
    n = _check_square(snr, "SNR matrix")
    mask = offdiag_mask(n)
    vals = snr[mask]
    if not np.all(np.isfinite(vals)):
        raise DomainError("off-diagonal SNR entries must be finite")
    if np.any(vals <= 0):
        raise DomainError("off-diagonal SNR entries must be positive")
    if np.any(vals < SNR_FLOOR):
        warnings.warn(
            "SNR below representable floor; clamping before the rate log",
            SnrClampWarning,
            stacklevel=2,
        )
        vals = np.maximum(vals, SNR_FLOOR)
    # log1p keeps the achievable rate accurate when 1 + snr would round to 1.
    rate_bps = params.bandwidth_hz * (np.log1p(vals) / _LN2)
    out = np.zeros((n, n))
    out[mask] = params.payload_bits / rate_bps
    return out


def link_metrics(
    params: ChannelParams, dist: DistanceMatrix, power: PowerMatrix
) -> LinkMetrics:
    """SNR and delay matrices for one allocation, as an immutable bundle."""
    snr = compute_snr_matrix(params, dist, power)
    delay = compute_delay_matrix(params, snr)
    return LinkMetrics(snr=snr, delay_s=delay)
