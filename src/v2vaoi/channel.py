"""Interference-limited link model for a shared vehicle-to-vehicle channel.

Every vehicle may address every other vehicle on the same channel, so the
power spent on one link shows up as interference on every other link into
the same receiver.  This module evaluates the per-link SNR under that mutual
interference and the Shannon-rate transmission delay that follows from it.

All operations are pure functions; the value types are frozen dataclasses
holding read-only float64 arrays, safe to share across threads.
"""

import functools
import math
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


def offdiag_values(m: np.ndarray) -> np.ndarray:
    """Off-diagonal entries of a square matrix, row-major order.

    Every aggregate in this package (min, max, mean, variance, RMSE) runs
    over these entries only; diagonals are conventions, not data.  A fresh
    array: one copy of _offdiag_view's strided view, flattened.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return _offdiag_view(m).copy().reshape(-1)


def _offdiag_view(m: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of an (n, n) matrix, or of each matrix of a
    stack (..., n, n), as an (..., n-1, n) strided view in row-major order:
    after the first diagonal entry, every n + 1 consecutive entries are n
    off-diagonal ones and the next diagonal entry.  An (n, n-1)
    offdiag_rows array reshaped to (n-1, n) lines up with it entry for
    entry.

    The one layout primitive: offdiag_rows, from_offdiag_rows and
    offdiag_values are built on it, with no boolean-mask indexing.  It is a
    view of m when m is C-contiguous; otherwise the flattening copies, and
    writes to the result do not reach m.
    """
    n = m.shape[-1]
    if m.ndim == 2:  # one matrix, in fewer numpy calls than the stack form
        return m.ravel()[1:].reshape(n - 1, n + 1)[:, :n]
    lead = m.shape[:-2]
    return m.reshape(*lead, n * n)[..., 1:].reshape(*lead, n - 1, n + 1)[..., :n]


def offdiag_rows(m: np.ndarray) -> np.ndarray:
    """m[i, j] for every j != i as row i, in order of j: the off-diagonal
    layout (n, n-1) the solvers work in; a stack (..., n, n) maps likewise.
    A fresh C-contiguous array, one copy of _offdiag_view's view."""
    n = m.shape[-1]
    return _offdiag_view(m).copy().reshape(*m.shape[:-2], n, n - 1)


def from_offdiag_rows(rows: np.ndarray) -> np.ndarray:
    """The (n, n) matrix, or (m, n, n) stack, with a zero diagonal whose
    off-diagonal rows are rows, shape (n, n-1) or (m, n, n-1): a fresh
    zeroed array whose _offdiag_view is assigned the rows."""
    n = rows.shape[-2]
    lead = rows.shape[:-2]
    out = np.zeros((*lead, n, n))
    _offdiag_view(out)[...] = rows.reshape(*lead, n - 1, n)
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
        _check_square(d, "distance matrix")
        if not np.all(np.isfinite(d)):
            raise DomainError("distance matrix contains non-finite entries")
        if np.max(np.abs(d - d.T)) > SYMMETRY_TOL_M:
            raise AsymmetryError(
                f"distance matrix asymmetric beyond {SYMMETRY_TOL_M} m"
            )
        if np.max(np.abs(np.diag(d))) > SYMMETRY_TOL_M:
            raise DomainError("distance matrix diagonal must be zero")
        if not _offdiag_view(d).min() > 0:
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
        # one min and one max pass; NaN fails the first comparison too
        if not (p.min() >= 0 and p.max() < np.inf):
            if not np.all(np.isfinite(p)):
                raise DomainError("power matrix contains non-finite entries")
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

    A solver reads it from AllocationProblem.loss, which calls this once
    per problem; each call here recomputes the power.

    Raises DomainError when a loss is infinite in float64, or so small that
    the largest gain p_max_w / loss, or a receiver's sum of n such gains, is
    not finite: no SNR could be evaluated for such a scene.  Also when
    noise_w plus that sum is not finite, as an SNR's denominator adds them,
    or when the largest gain over noise_w is not finite: interference is
    never negative, so every SNR is at most that bound.  Last, when n links
    at p_max_w sum past the float range, as a row's budget sum could.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        loss = offdiag_rows(dist.d) ** params.alpha
        # a zero loss makes the gain bound infinite too
        gain_bound = params.p_max_w / loss.min()
        gain_sum_bound = dist.n * gain_bound
        denom_bound = gain_sum_bound + params.noise_w
        snr_bound = gain_bound / params.noise_w
        row_bound = dist.n * params.p_max_w  # bounds every row's budget sum
    if not (loss.max() < np.inf and gain_sum_bound < np.inf):
        d = offdiag_values(dist.d)
        raise DomainError(
            f"path loss D**alpha out of float range at alpha={params.alpha} "
            f"over distances {d.min():.3g}..{d.max():.3g} m"
        )
    if not denom_bound < np.inf:
        raise DomainError(
            f"noise_w {params.noise_w:.3g} W plus interference up to "
            f"{gain_sum_bound:.3g} W overflows the float range"
        )
    if not snr_bound < np.inf:
        raise DomainError(
            f"p_max_w {params.p_max_w:.3g} W over noise_w {params.noise_w:.3g} W "
            f"overflows the SNR at path loss {loss.min():.3g}"
        )
    if not row_bound < np.inf:
        raise DomainError(
            f"{dist.n} links at p_max_w {params.p_max_w:.3g} W sum past the float range"
        )
    loss.flags.writeable = False
    return loss


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
    """The SNR formula on a stack of scenes' powers (the GA's population)
    or on one scene's (a solve's result in _finish, exact's starting
    bracket), in off-diagonal row layout (..., n, n-1) (offdiag_rows),
    given the scene's path loss in the same layout.  Returns a fresh array
    of that shape, which shares no memory with loss or powers.  Greedy's
    NumPy epoch keeps its gains and calls _snr_of_gain.
    """
    return _snr_of_gain(powers / loss, noise_w)


def _snr_of_gain(gain: np.ndarray, noise_w: float) -> np.ndarray:
    """_snr of the gains powers / loss, which it leaves as they are.

    Each receiver's incoming gain is one np.bincount over the links in
    row-major order, which adds a receiver's senders one by one in sender
    order: the order of a sum over axis -2 of the full matrix, whose
    diagonal adds exact zeros.  So the sums are bit-identical to that reduce.
    On a stack, this costs less than a strided column reduce per scene.
    """
    n = gain.shape[-2]
    recv = _receivers(gain.size // (n * (n - 1)), n)
    denom = np.bincount(recv, weights=gain.reshape(-1)).take(recv).reshape(gain.shape)
    denom -= gain  # drop the k = i term
    denom += noise_w
    return np.divide(gain, denom, out=denom)


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

    Returns a fresh n x n float64 array with a zero diagonal.  This is the
    matrix API; the solvers evaluate _snr on AllocationProblem.loss, which
    gives the same bits without recomputing the path loss.
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
    Off-diagonal SNR entries must be nonnegative; log1p keeps the rate
    accurate down to subnormal SNRs, and a zero SNR's infinite delay is an
    overflow.  This is where every delay is checked, before and after the
    rate_factor scale, and a DomainError names the factors that put it out
    of range.  A delay that overflows float64 names the payload and
    bandwidth when payload_bits / bandwidth_hz alone overflows, and the min
    SNR otherwise.  One below the smallest normal float, a subnormal or 0,
    names the payload and bandwidth, or the rate_factor when only the
    scaled delay is.
    """
    snr = np.asarray(snr, dtype=np.float64)
    _check_square(snr, "SNR matrix")
    vals = offdiag_rows(snr)
    # one min and one max pass; NaN fails the first comparison too
    if not (vals.min() >= 0 and vals.max() < np.inf):
        if not np.all(np.isfinite(vals)):
            raise DomainError("off-diagonal SNR entries must be finite")
        raise DomainError("off-diagonal SNR entries must be nonnegative")
    with np.errstate(over="ignore", divide="ignore"):
        # log1p keeps the achievable rate accurate when 1 + snr would round to 1.
        rate_bps = params.bandwidth_hz * (np.log1p(vals) / _LN2)
        unscaled = params.payload_bits / rate_bps
    payload = f"payload {params.payload_bits!r} bits over bandwidth {params.bandwidth_hz!r} Hz"
    if not np.all(np.isfinite(unscaled)):
        if math.isfinite(params.payload_bits / params.bandwidth_hz):
            raise DomainError(f"min SNR {vals.min():.4g} overflows a delay beyond the float range")
        raise DomainError(f"{payload} overflows a delay at min SNR {vals.min():.4g}")
    _check_normal(unscaled, payload)
    delay = unscaled * params.rate_factor
    _check_normal(delay, f"rate_factor {params.rate_factor!r}")
    return from_offdiag_rows(delay)

