"""Perception-quality proxy: average precision as a function of delay.

A GPU perception stack is out of scope, so scene quality is estimated from
bundled measurement samples of a LiDAR object detector degrading under
three delay regimes: constant per-vehicle computation delay ("backbone"),
a constant transmission delay applied to every collaborator, and a delay
spread growing linearly with distance.  Queries interpolate linearly
between samples; every output is labeled a proxy estimate.  To score
against other measurements, build a DegradationCurve from their samples and
pass it to estimate_scene_ap.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class DegradationCurve:
    """AP@0.3/0.5/0.7 sampled at increasing delay values.

    samples is a (k, 4) array of rows (delay, ap30, ap50, ap70).  Validation
    enforces what any usable curve must satisfy: strictly increasing delays,
    AP values in [0, 1] that never increase with delay, and looser IoU never
    scoring lower (ap30 >= ap50 >= ap70 at every sample).
    """

    delay_type: str
    samples: np.ndarray

    def __post_init__(self):
        s = np.array(self.samples, dtype=np.float64, order="C")
        if s.ndim != 2 or s.shape[1] != 4 or s.shape[0] < 1:
            raise DomainError(
                f"curve needs a (k, 4) sample array, got shape {s.shape}"
            )
        delays = s[:, 0]
        aps = s[:, 1:]
        if np.any(np.isnan(s)):
            raise DomainError("curve samples must not be NaN")
        if np.any(delays < 0):
            raise DomainError("sample delays must be nonnegative")
        if np.any(np.diff(delays) <= 0):
            raise DomainError("sample delays must be strictly increasing")
        if np.any(aps < 0) or np.any(aps > 1):
            raise DomainError("AP values must lie in [0, 1]")
        if np.any(np.diff(aps, axis=0) > 0):
            raise DomainError("AP values must be non-increasing in delay")
        if np.any(np.diff(aps, axis=1) > 0):
            raise DomainError("each sample must satisfy ap30 >= ap50 >= ap70")
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)


BACKBONE_CURVE = DegradationCurve(
    "backbone",
    np.array(
        [
            [0.0, 0.864, 0.859, 0.805],
            [0.1, 0.855, 0.709, 0.148],
            [0.2, 0.618, 0.183, 0.036],
            [0.3, 0.258, 0.071, 0.021],
            [0.4, 0.124, 0.045, 0.018],
            [0.5, 0.081, 0.033, 0.017],
            [1.0, 0.039, 0.024, 0.015],
        ]
    ),
)

CONSTANT_TRANSMISSION_CURVE = DegradationCurve(
    "constant_transmission",
    np.array(
        [
            [0.0, 0.864, 0.859, 0.805],
            [0.1, 0.860, 0.810, 0.435],
            [0.2, 0.750, 0.481, 0.227],
            [0.3, 0.500, 0.332, 0.196],
        ]
    ),
)

LINEAR_COEFFICIENT_CURVE = DegradationCurve(
    "linear_coefficient",
    np.array(
        [
            [0.0, 0.864, 0.859, 0.805],
            [0.1, 0.863, 0.836, 0.735],
            [0.5, 0.643, 0.440, 0.253],
            [1.0, 0.395, 0.314, 0.211],
        ]
    ),
)


def estimate_ap(curve: DegradationCurve, delay_value: float) -> tuple:
    """AP triple at a delay, interpolated linearly between samples.

    Queries at a sample return that row exactly: an interior one is the
    lower end at t = 0, and s_lo + 0.0 * (s_hi - s_lo) is s_lo bit for bit.
    Queries past the last sample clamp to it.
    """
    if not (delay_value >= 0):  # NaN fails too
        raise DomainError(f"delay must be nonnegative, got {delay_value}")
    s = curve.samples
    delays = s[:, 0]
    x = float(delay_value)
    if x <= delays[0]:
        row = s[0, 1:]
    elif x >= delays[-1]:
        row = s[-1, 1:]
    else:
        hi = int(np.searchsorted(delays, x, side="right"))
        lo = hi - 1
        t = (x - delays[lo]) / (delays[hi] - delays[lo])
        row = s[lo, 1:] + t * (s[hi, 1:] - s[lo, 1:])
    return tuple(row.tolist())


@dataclass(frozen=True)
class SceneApEstimate:
    """Proxy AP estimate for one scene's link ages.

    The constant part of the ages (their mean) is scored on the constant
    transmission curve and the asynchrony (max minus min age) on the linear
    coefficient curve; the combined triple is the entrywise minimum of the
    two, since either effect alone can cost the detections it dominates.
    The combination rule is a modeling choice of this package, hence the
    explicit proxy label.
    """

    ap30: float
    ap50: float
    ap70: float
    mean_age_s: float
    age_spread_s: float
    constant_component: tuple
    spread_component: tuple
    label: str = "proxy estimate (not a measured perception result)"


def estimate_scene_ap(
    snapped_ages,
    constant_curve: DegradationCurve = CONSTANT_TRANSMISSION_CURVE,
    spread_curve: DegradationCurve = LINEAR_COEFFICIENT_CURVE,
) -> SceneApEstimate:
    """Score a scene's snapped ages (any shape); deterministic in the ages."""
    ages = np.asarray(snapped_ages, dtype=np.float64).ravel()
    if ages.size == 0:
        raise DomainError("cannot estimate AP for an empty age array")
    mean_age = float(ages.mean())
    spread = float(ages.max() - ages.min())
    constant = estimate_ap(constant_curve, mean_age)
    spread_est = estimate_ap(spread_curve, spread)
    combined = tuple(min(c, p) for c, p in zip(constant, spread_est))
    return SceneApEstimate(
        ap30=combined[0],
        ap50=combined[1],
        ap70=combined[2],
        mean_age_s=mean_age,
        age_spread_s=spread,
        constant_component=constant,
        spread_component=spread_est,
    )
