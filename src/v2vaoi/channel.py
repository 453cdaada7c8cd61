"""Interference-limited link model for a shared vehicle-to-vehicle channel.

Every vehicle may address every other vehicle on the same channel, so the
power spent on one link shows up as interference on every other link into
the same receiver.  This module evaluates the per-link SNR under that mutual
interference and the Shannon-rate transmission delay that follows from it.

All operations are pure functions; the value types are frozen dataclasses
holding read-only float64 arrays, safe to share across threads.
"""

import functools
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

_LN2 = float(np.log(2.0))

SYMMETRY_TOL_M = 1e-9


@functools.lru_cache(maxsize=MAX_VEHICLES)
def offdiag_mask(n: int) -> np.ndarray:
    """Boolean mask selecting the ordered pairs i != j; read-only, shared
    by every call with the same n."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def offdiag_values(m: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of a square matrix, row-major order.

    Every aggregate in this package (min, max, mean, variance, RMSE) runs
    over these entries only; diagonals are conventions, not data.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m[offdiag_mask(m.shape[0])]


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
        rate_factor: delay scale in (0, 1]; every delay scales exactly by it.
    """

    alpha: float = 3.0
    bandwidth_hz: float = 1.0e7
    noise_w: float = 4.14e-14
    p_min_w: float = 1.0e-6
    p_max_w: float = 23.0
    payload_bits: float = 8.48e6
    rate_factor: float = 1.0

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
        if not (0 < self.rate_factor <= 1):
            raise DomainError(f"rate_factor must be in (0, 1], got {self.rate_factor}")


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


def path_loss(params: ChannelParams, dist: DistanceMatrix) -> np.ndarray:
    """Path loss D_ij**alpha of every ordered pair as read-only offdiag_rows.

    Raises DomainError when a loss is infinite in float64, or so small that
    the largest gain p_max_w / loss, or a receiver's sum of n such gains, is
    not finite: no SNR could be evaluated for such a scene.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        loss = offdiag_rows(dist.d) ** params.alpha
        # a zero loss makes the gain bound infinite too
        gain_sum_bound = dist.n * (params.p_max_w / loss.min())
    if not (loss.max() < np.inf and gain_sum_bound < np.inf):
        d = offdiag_values(dist.d)
        raise DomainError(
            f"path loss D**alpha out of float range at alpha={params.alpha} "
            f"over distances {d.min():.3g}..{d.max():.3g} m"
        )
    loss.flags.writeable = False
    return loss


def offdiag_rows(m: np.ndarray) -> np.ndarray:
    """m[i, j] for every j != i as row i, in order of j: the off-diagonal
    layout (n, n-1) the solvers work in; a stack (..., n, n) maps likewise."""
    n = m.shape[-1]
    return m[..., offdiag_mask(n)].reshape(*m.shape[:-2], n, n - 1)


def from_offdiag_rows(rows: np.ndarray) -> np.ndarray:
    """The (n, n) matrix, or (m, n, n) stack, with a zero diagonal whose
    off-diagonal rows are rows, shape (n, n-1) or (m, n, n-1)."""
    n = rows.shape[-2]
    out = np.zeros((*rows.shape[:-2], n, n))
    out[..., offdiag_mask(n)] = rows.reshape(*rows.shape[:-2], -1)
    return out


@functools.lru_cache(maxsize=64)
def _receivers(count: int, n: int) -> np.ndarray:
    """Flat index, over count stacked scenes, of the receiver of every link
    in off-diagonal row layout: link (i, k) of scene s reaches s*n + j with
    j = k + (k >= i)."""
    k = np.arange(n - 1)
    recv = (np.arange(count)[:, None, None] * n + k + (k >= np.arange(n)[:, None])).reshape(-1)
    recv.flags.writeable = False
    return recv


def _snr(loss: np.ndarray, powers: np.ndarray, noise_w: float) -> np.ndarray:
    """The one implementation of the SNR formula, on one scene's powers or
    a stack of them in off-diagonal row layout (..., n, n-1) (offdiag_rows),
    given the scene's path loss in the same layout.

    Each receiver's incoming gain is one np.bincount over the links in
    row-major order, which adds a receiver's senders one by one in sender
    order: the order of a sum over axis -2 of the full matrix, whose
    diagonal adds exact zeros.  So the sums are bit-identical to that reduce.
    """
    gain = powers / loss
    n = gain.shape[-2]
    recv = _receivers(gain.size // (n * (n - 1)), n)
    incoming = np.bincount(recv, weights=gain.reshape(-1))
    interference = incoming.take(recv).reshape(gain.shape) - gain  # drop the k = i term
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
    return from_offdiag_rows(_snr(path_loss(params, dist), offdiag_rows(power.p), params.noise_w))


def _check_normal(delay: np.ndarray, cause: str) -> None:
    if not delay.min() >= np.finfo(np.float64).tiny:
        raise DomainError(
            f"{cause} underflows a delay to {delay.min():.3g} s, below the normal float range"
        )


def compute_delay_matrix(params: ChannelParams, snr: np.ndarray) -> np.ndarray:
    """Transmission delay in seconds for every link: payload over Shannon rate.

    Delay is exactly linear in payload_bits and rate_factor, decreasing in SNR.
    Off-diagonal SNR entries must be positive; log1p keeps the rate accurate
    down to subnormal SNRs.  This is where every delay is checked, before
    and after the rate_factor scale, and a DomainError names the factors
    that put it out of range: a delay that overflows float64 names the
    payload, bandwidth and min SNR; one below the smallest normal float, a
    subnormal or 0, names the payload and bandwidth, or the rate_factor when
    only the scaled delay is.
    """
    snr = np.asarray(snr, dtype=np.float64)
    n = _check_square(snr, "SNR matrix")
    vals = snr[offdiag_mask(n)]
    if not np.all(np.isfinite(vals)):
        raise DomainError("off-diagonal SNR entries must be finite")
    if np.any(vals <= 0):
        raise DomainError("off-diagonal SNR entries must be positive")
    with np.errstate(over="ignore", divide="ignore"):
        # log1p keeps the achievable rate accurate when 1 + snr would round to 1.
        rate_bps = params.bandwidth_hz * (np.log1p(vals) / _LN2)
        unscaled = params.payload_bits / rate_bps
    payload = f"payload {params.payload_bits!r} bits over bandwidth {params.bandwidth_hz!r} Hz"
    if not np.all(np.isfinite(unscaled)):
        raise DomainError(f"{payload} overflows a delay at min SNR {vals.min():.4g}")
    _check_normal(unscaled, payload)
    delay = unscaled * params.rate_factor
    _check_normal(delay, f"rate_factor {params.rate_factor!r}")
    return from_offdiag_rows(delay.reshape(n, n - 1))

