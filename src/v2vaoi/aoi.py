"""Information age of each link: communication plus computation delay,
snapped onto the sensor sampling grid by expectation-preserving rounding."""

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkMetrics
from .errors import DimensionMismatchError, DomainError


@dataclass(frozen=True)
class AoiConfig:
    """Timing model for one scene.

    compute_delay_s applies uniformly to every vehicle unless
    per_vehicle_compute_delay_s overrides it (indexed by sender).
    """

    compute_delay_s: float = 0.0
    sample_period_s: float = 0.1
    looptime_s: float = 0.1
    rng_seed: int = 0
    per_vehicle_compute_delay_s: tuple = None

    def __post_init__(self):
        # written so that NaN fails every test
        if not (0 < self.sample_period_s < math.inf):
            raise DomainError("sample_period_s must be positive and finite")
        if not (0 <= self.compute_delay_s < math.inf):
            raise DomainError("compute_delay_s must be nonnegative and finite")
        if not (self.sample_period_s <= self.looptime_s < math.inf):
            raise DomainError("looptime_s must be finite and at least one sample period")
        if self.per_vehicle_compute_delay_s is not None:
            if not all(0 <= v < math.inf for v in self.per_vehicle_compute_delay_s):
                raise DomainError("per-vehicle compute delays must be nonnegative and finite")


@dataclass(frozen=True)
class AoIRecord:
    """Age bookkeeping for one directed link (sender, receiver).

    total_delay_s always equals comm_delay_s + compute_delay_s, and
    snapped_age_s always equals timestamp_offset * the sampling period.
    """

    link: tuple
    comm_delay_s: float
    compute_delay_s: float
    total_delay_s: float
    snapped_age_s: float
    timestamp_offset: int


@dataclass(frozen=True)
class AoiSummary:
    max_age_s: float
    mean_age_s: float
    age_variance: float
    stale_count: int
    # ages restated against the perception-cycle timestamp (age + looptime)
    effective_max_age_s: float
    effective_mean_age_s: float


def _round_offset(delay_s: float, period_s: float, rng: np.random.Generator) -> int:
    # written so that NaN fails every test
    if not (0 <= delay_s < math.inf):
        raise DomainError(f"delay must be nonnegative and finite, got {delay_s}")
    if not (0 < period_s < math.inf):
        raise DomainError(f"period must be positive and finite, got {period_s}")
    quotient = delay_s / period_s
    base = int(np.floor(quotient))
    frac = quotient - base
    if frac > 0 and rng.random() < frac:
        base += 1
    return base


def probabilistic_round(
    delay_s: float, period_s: float, rng: np.random.Generator
) -> float:
    """Stochastically round a delay to the sampling grid, preserving its mean.

    Returns floor(delay/period) * period with probability 1 - f and the next
    grid point up with probability f, where f is the fractional part, so the
    expected value equals the input delay.  Exact multiples never move.
    """
    return _round_offset(delay_s, period_s, rng) * period_s


def build_aoi_records(metrics, cfg: AoiConfig) -> list:
    """One age record per ordered vehicle pair, self-links included.

    metrics may be a LinkMetrics or a raw square delay matrix in seconds
    (the latter covers the zero-delay mode, which bypasses the channel).
    Self-links carry computation delay only.  Deterministic per seed.
    """
    if isinstance(metrics, LinkMetrics):
        delay = metrics.delay_s
    else:
        delay = np.asarray(metrics, dtype=np.float64)
        if delay.ndim != 2 or delay.shape[0] != delay.shape[1]:
            raise DimensionMismatchError(
                f"expected a square delay matrix, got shape {delay.shape}"
            )
        if np.any(delay < 0):
            raise DomainError("delays must be nonnegative")
    n = delay.shape[0]
    overrides = cfg.per_vehicle_compute_delay_s
    if overrides is not None and len(overrides) != n:
        raise DimensionMismatchError(
            f"{len(overrides)} per-vehicle compute delays for {n} vehicles"
        )
    rng = np.random.default_rng(cfg.rng_seed)
    records = []
    for i in range(n):
        compute = overrides[i] if overrides is not None else cfg.compute_delay_s
        for j in range(n):
            comm = 0.0 if i == j else float(delay[i, j])
            total = comm + compute
            offset = _round_offset(total, cfg.sample_period_s, rng)
            records.append(
                AoIRecord(
                    link=(i, j),
                    comm_delay_s=comm,
                    compute_delay_s=compute,
                    total_delay_s=total,
                    snapped_age_s=offset * cfg.sample_period_s,
                    timestamp_offset=offset,
                )
            )
    return records


def aoi_summary(records, looptime_s: float) -> AoiSummary:
    """Exact aggregates over snapped ages; staleness is strict exceedance."""
    if not records:
        raise DomainError("cannot summarize an empty record list")
    ages = np.array([r.snapped_age_s for r in records])
    max_age = float(ages.max())
    mean_age = float(ages.mean())
    # identical ages have exactly zero variance; np.var would leak the
    # rounding of the mean back in as ~1e-34
    variance = 0.0 if max_age == float(ages.min()) else float(ages.var())
    return AoiSummary(
        max_age_s=max_age,
        mean_age_s=mean_age,
        age_variance=variance,
        stale_count=int(np.count_nonzero(ages > looptime_s)),
        effective_max_age_s=max_age + looptime_s,
        effective_mean_age_s=mean_age + looptime_s,
    )
