"""Information age of each link: communication plus computation delay,
snapped onto the sensor sampling grid by expectation-preserving rounding."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, check_finite, check_integers, variance


@dataclass(frozen=True)
class AoiConfig:
    """Timing model for one scene.

    compute_delay_s is one computation delay for every sender, or a tuple
    of one per sender, indexed by sender.  looptime_s is the perception
    cycle that aoi_summary judges the ages against.
    """

    compute_delay_s: float | tuple = 0.0
    sample_period_s: float = 0.1
    looptime_s: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        check_integers(self, "rng_seed", least=0)
        # written so that NaN fails every test
        if not (0 < self.sample_period_s < math.inf):
            raise DomainError("sample_period_s must be positive and finite")
        if not all(0 <= c < math.inf for c in np.ravel(self.compute_delay_s)):
            raise DomainError("compute_delay_s must be nonnegative and finite")
        if not (self.sample_period_s <= self.looptime_s < math.inf):
            raise DomainError("looptime_s must be finite and at least one sample period")


@dataclass(frozen=True)
class AoiSummary:
    max_age_s: float
    mean_age_s: float
    age_variance: float
    stale_count: int
    # ages restated against the perception-cycle timestamp (age + looptime)
    effective_max_age_s: float
    effective_mean_age_s: float


def _round_offsets(
    delay_s: np.ndarray, period_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Grid offsets of delays finite in sampling periods, as whole float64 numbers.

    An entry rounds up with probability equal to its fractional part.  One
    uniform is drawn per entry with a nonzero fractional part, in row-major
    order; exact multiples draw nothing.
    """
    # written so that NaN fails every test
    bad = ~((delay_s >= 0) & (delay_s < math.inf))
    if bad.any():
        raise DomainError(f"delay must be nonnegative and finite, got {delay_s[bad][0]}")
    if not (0 < period_s < math.inf):
        raise DomainError(f"period must be positive and finite, got {period_s}")
    quotient = delay_s / period_s
    offset = np.floor(quotient)
    frac = quotient - offset
    up = frac > 0
    up[up] = rng.random(np.count_nonzero(up)) < frac[up]
    return offset + up


def build_aoi_records(delay_s, cfg: AoiConfig) -> np.ndarray:
    """Snapped age of every ordered vehicle pair (sender i, receiver j),
    self-links included, as a read-only float64 array of n * n ages in
    row-major link order.

    delay_s is a square matrix of transmission delays in seconds, such as
    AllocationResult.delay_s or all zeros for the zero-delay mode; its
    diagonal is ignored.  Link (i, j) adds sender i's compute delay, so
    self-links carry computation delay only; a tuple of compute delays
    must hold one per vehicle.  Deterministic per seed.  A delay past the
    float range in sampling periods is refused by link; an age past it
    comes out as inf, which aoi_summary refuses.
    """
    comm = np.array(delay_s, dtype=np.float64)  # a copy: its diagonal is zeroed
    if comm.ndim != 2 or comm.shape[0] != comm.shape[1]:
        raise DimensionMismatchError(f"expected a square delay matrix, got shape {comm.shape}")
    np.fill_diagonal(comm, 0.0)
    if np.any(comm < 0):
        raise DomainError("delays must be nonnegative")
    n = comm.shape[0]
    compute = np.array(cfg.compute_delay_s, dtype=np.float64)
    if compute.ndim and compute.shape != (n,):
        raise DimensionMismatchError(f"{compute.size} compute delays for {n} vehicles")
    with np.errstate(over="ignore"):
        total = (comm + compute.reshape(-1, 1)).ravel()  # row i is sender i
        worst = int(np.argmax(total))  # the first to overflow the grid, NaN aside
        if np.isinf(total[worst] / cfg.sample_period_s):
            i, j = divmod(worst, n)
            own = np.resize(compute, n)[i]  # sender i's; the larger part is named as the cause
            why = (" (payload over its rate in the bandwidth at its SNR, from noise_w, "
                   "p_max_w, p_min_w and the path loss)") if comm[i, j] >= own else ""
            raise DomainError(
                f"link ({i}, {j})'s transmission delay {comm[i, j]:.3g} s{why} plus compute "
                f"delay {own:.3g} s overflows float64 in sampling periods of "
                f"{cfg.sample_period_s!r} s"
            )
        offset = _round_offsets(total, cfg.sample_period_s, np.random.default_rng(cfg.rng_seed))
        ages = offset * cfg.sample_period_s
    ages.flags.writeable = False
    return ages


def aoi_summary(snapped_ages, cfg: AoiConfig) -> AoiSummary:
    """Exact aggregates over snapped ages; staleness is strict exceedance
    of cfg.looptime_s, the perception cycle the effective ages add.

    A statistic past the float range is an error, never an inf in a record.
    """
    # flattened, so the reductions run in row-major link order whatever the strides
    ages = np.asarray(snapped_ages, dtype=np.float64).ravel()
    if ages.size == 0:
        raise DomainError("cannot summarize an empty age array")
    with np.errstate(over="ignore", invalid="ignore"):
        max_age = float(ages.max())
        mean_age = float(ages.mean())
    summary = AoiSummary(
        max_age_s=max_age,
        mean_age_s=mean_age,
        age_variance=variance(ages),
        stale_count=int(np.count_nonzero(ages > cfg.looptime_s)),
        effective_max_age_s=max_age + cfg.looptime_s,
        effective_mean_age_s=mean_age + cfg.looptime_s,
    )
    for name, value in vars(summary).items():
        check_finite(name, value)
    return summary
