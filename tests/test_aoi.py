"""Probabilistic rounding to the sampling grid, per-link ages and their summary."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vaoi.allocator import AllocationProblem, default_pa
from v2vaoi.aoi import (
    AoiConfig,
    _round_offsets,
    aoi_summary,
    build_aoi_records,
)
from v2vaoi.channel import ChannelParams
from v2vaoi.errors import DimensionMismatchError, DomainError
from v2vaoi.proxy import estimate_scene_ap
from v2vaoi.scenario import ScenarioSpec, generate_scene


def round_one(delay, period, rng):
    """One delay snapped to the grid: _round_offsets on a one-element array."""
    return float(_round_offsets(np.array([delay]), period, rng)[0] * period)


def test_exact_multiple_never_moves():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert round_one(0.2, 0.1, rng) == 0.2


def test_zero_delay_stays_zero():
    rng = np.random.default_rng(0)
    assert round_one(0.0, 0.1, rng) == 0.0


def rounded_draws(delay, period, rng, count):
    """count round_one(delay, period, rng) draws in one array call: one
    uniform per draw, in order, so the same bits as the loop."""
    return _round_offsets(np.full(count, delay), period, rng) * period


def assert_head_matches_scalar_loop(draws, seed, delay, period):
    # the first 1000 array draws are the one-delay loop's on a fresh generator
    rng = np.random.default_rng(seed)
    loop = np.array([round_one(delay, period, rng) for _ in range(1000)])
    assert draws[:1000].tobytes() == loop.tobytes()


def test_halfway_point_statistics():
    rng = np.random.default_rng(1234)
    draws = rounded_draws(0.25, 0.1, rng, 100_000)
    assert_head_matches_scalar_loop(draws, 1234, 0.25, 0.1)
    values = set(np.unique(draws))
    assert values == {2 * 0.1, 3 * 0.1}
    assert abs(draws.mean() - 0.25) < 0.001


def test_negative_delay_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        round_one(-0.1, 0.1, rng)
    with pytest.raises(DomainError):
        round_one(0.1, 0.0, rng)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            round_one(bad, 0.1, rng)
        with pytest.raises(DomainError):
            build_aoi_records([[0.0, bad], [0.5, 0.0]], AoiConfig())


@settings(max_examples=100, deadline=None)
@given(
    delay=st.floats(min_value=0.0, max_value=50.0),
    period=st.floats(min_value=1e-3, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_snapped_age_on_grid_within_one_period(delay, period, seed):
    rng = np.random.default_rng(seed)
    snapped = round_one(delay, period, rng)
    offset = round(snapped / period)
    assert snapped == offset * period
    assert abs(snapped - delay) < period * (1 + 1e-9)


def test_expectation_preservation_bound():
    # deviation of the empirical mean stays within 3 * period * sqrt(0.25/N)
    rng = np.random.default_rng(7)
    period, n_draws = 0.1, 100_000
    for delay in (0.13, 0.27, 0.409):
        draws = rounded_draws(delay, period, rng, n_draws)
        if delay == 0.13:
            assert_head_matches_scalar_loop(draws, 7, delay, period)
        mean = np.mean(draws)
        assert abs(mean - delay) < 3 * period * np.sqrt(0.25 / n_draws)


# --- ages ---------------------------------------------------------------------


def delay_matrix_3():
    d = np.array(
        [
            [0.0, 0.05, 0.12],
            [0.07, 0.0, 0.31],
            [0.22, 0.14, 0.0],
        ]
    )
    return d


def test_records_cover_all_ordered_pairs_with_self_links():
    cfg = AoiConfig(compute_delay_s=0.1, rng_seed=3)
    d = delay_matrix_3()
    np.fill_diagonal(d, 0.9)  # a raw diagonal is ignored: self-links carry compute only
    ages = build_aoi_records(d, cfg)
    for raw in (-1.0, math.nan, math.inf):  # any diagonal, a negative one too
        np.fill_diagonal(d, raw)
        assert build_aoi_records(d, cfg).tobytes() == ages.tobytes()
    # flat, in row-major link order, so len() counts the links
    assert ages.shape == (9,) and len(ages) == 9
    assert ages.dtype == np.float64
    assert not ages.flags.writeable
    np.fill_diagonal(d, 0.0)
    total = (d + 0.1).ravel()
    offsets = np.round(ages / cfg.sample_period_s)
    np.testing.assert_array_equal(ages, offsets * cfg.sample_period_s)  # on the grid
    assert np.all(np.abs(ages - total) < cfg.sample_period_s)


def test_grid_delays_are_their_own_ages():
    # on a power-of-two grid every total delay is an exact multiple of the
    # period, so it draws nothing and each age is its link's total delay
    period, n = 0.125, 4
    d = np.random.default_rng(5).integers(0, 9, size=(n, n)) * period
    np.fill_diagonal(d, 7 * period)  # ignored: self-links carry compute only
    compute = (0.0, 0.25, 0.5, 1.375)
    cfg = AoiConfig(compute_delay_s=compute, sample_period_s=period, looptime_s=period)
    ages = build_aoi_records(d, cfg).reshape(n, n)
    np.testing.assert_array_equal(np.diag(ages), compute)
    for i in range(n):  # row i carries sender i's compute delay
        want = d[i] + compute[i]
        want[i] = compute[i]
        np.testing.assert_array_equal(ages[i], want)
    reference = np.array([r.total_delay_s for r in _aoi_reference(d, cfg)])
    assert ages.tobytes() == reference.tobytes()


def test_records_half_period_split():
    seen = set()
    off_diagonal = ~np.eye(2, dtype=bool)
    for seed in range(40):
        ages = build_aoi_records(
            np.array([[0.0, 0.05], [0.05, 0.0]]), AoiConfig(rng_seed=seed)
        )
        seen.update(ages.reshape(2, 2)[off_diagonal].tolist())
    assert seen == {0.0, 0.1}


def test_records_exact_compute_delay():
    ages = build_aoi_records(np.zeros((2, 2)), AoiConfig(compute_delay_s=0.1))
    assert np.all(ages == 0.1)


def test_records_all_zero():
    ages = build_aoi_records(np.zeros((3, 3)), AoiConfig())
    assert np.all(ages == 0.0)


def test_records_deterministic_per_seed():
    cfg = AoiConfig(rng_seed=21)
    a = build_aoi_records(delay_matrix_3(), cfg)
    b = build_aoi_records(delay_matrix_3(), cfg)
    assert a.tobytes() == b.tobytes()


def test_records_per_vehicle_override():
    # on the grid, so each sender's age is its compute delay exactly
    cfg = AoiConfig(compute_delay_s=(0.1, 0.4), rng_seed=0)
    ages = build_aoi_records(np.zeros((2, 2)), cfg)
    assert ages.tolist() == [0.1, 0.1, 0.4, 0.4]
    for n in (1, 3):
        with pytest.raises(DimensionMismatchError, match=f"^2 compute delays for {n} vehicles$"):
            build_aoi_records(np.zeros((n, n)), cfg)
    with pytest.raises(DimensionMismatchError):
        build_aoi_records(np.zeros((2, 2)), AoiConfig(compute_delay_s=((0.1, 0.4),)))


def test_records_reject_bad_matrices():
    with pytest.raises(DimensionMismatchError):
        build_aoi_records(np.zeros((2, 3)), AoiConfig())
    with pytest.raises(DomainError):
        build_aoi_records([[0.0, -0.1], [0.1, 0.0]], AoiConfig())


def test_ages_past_int64_offsets_are_finite():
    # 1e301 sampling periods: beyond any int64 offset, yet a finite age
    ages = build_aoi_records(np.zeros((2, 2)), AoiConfig(compute_delay_s=1e300))
    assert np.all(np.isfinite(ages)) and np.all(np.abs(ages - 1e300) <= 0.1)
    summary = aoi_summary(ages, AoiConfig())
    assert all(math.isfinite(v) for v in vars(summary).values())


def test_age_past_the_float_range_is_inf_without_a_warning():
    # the offset is finite, but the offset times a 3 s period is not
    top = np.finfo(np.float64).max
    cfg = AoiConfig(compute_delay_s=top, sample_period_s=3.0, looptime_s=3.0)
    ages = build_aoi_records(np.zeros((2, 2)), cfg)  # RuntimeWarnings are errors here
    assert np.all(np.isinf(ages))
    with pytest.raises(DomainError, match="^max_age_s overflows the float range$"):
        aoi_summary(ages, cfg)


# --- the per-link loop the arrays replaced, kept as the reference -------------


@dataclass(frozen=True)
class _AoIRecord:
    link: tuple
    comm_delay_s: float
    compute_delay_s: float
    total_delay_s: float
    snapped_age_s: float
    timestamp_offset: int


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


def _aoi_reference(delay_s, cfg: AoiConfig) -> list:
    """build_aoi_records as one record object per ordered pair, in a loop."""
    delay = np.asarray(delay_s, dtype=np.float64)
    if delay.ndim != 2 or delay.shape[0] != delay.shape[1]:
        raise DimensionMismatchError(
            f"expected a square delay matrix, got shape {delay.shape}"
        )
    if np.any(delay < 0):
        raise DomainError("delays must be nonnegative")
    n = delay.shape[0]
    per_sender = isinstance(cfg.compute_delay_s, tuple)
    if per_sender and len(cfg.compute_delay_s) != n:
        raise DimensionMismatchError(f"{len(cfg.compute_delay_s)} compute delays for {n} vehicles")
    rng = np.random.default_rng(cfg.rng_seed)
    records = []
    for i in range(n):
        compute = cfg.compute_delay_s[i] if per_sender else cfg.compute_delay_s
        for j in range(n):
            comm = 0.0 if i == j else float(delay[i, j])
            total = comm + compute
            offset = _round_offset(total, cfg.sample_period_s, rng)
            records.append(
                _AoIRecord(
                    link=(i, j),
                    comm_delay_s=comm,
                    compute_delay_s=compute,
                    total_delay_s=total,
                    snapped_age_s=offset * cfg.sample_period_s,
                    timestamp_offset=offset,
                )
            )
    return records


def _reference_delays(n, seed):
    """Random delays with exact grid multiples (0.2 s) and zeros mixed in."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, 0.5, size=(n, n))
    d[rng.random((n, n)) < 0.25] = 0.2
    d[rng.random((n, n)) < 0.1] = 0.0
    np.fill_diagonal(d, 0.0)
    return d


def _channel_delays(n, seed):
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=seed))
    return default_pa(AllocationProblem(ChannelParams(), dist)).delay_s


_REFERENCE_CASES = [
    *[
        pytest.param(n, seed, compute, _reference_delays, id=f"n{n}-seed{seed}-c{compute}")
        for n in (2, 3, 8, 64)
        for seed in (0, 1)
        for compute in (0.0, 0.1, 0.037, 0.05)
    ],
    # per-sender compute delays, indexed by sender
    pytest.param(2, 5, (0.1, 0.037), _reference_delays, id="n2-overrides"),
    pytest.param(3, 6, (0.0, 0.2, 0.05), _reference_delays, id="n3-overrides"),
    pytest.param(
        8, 7, (0.0, 0.1, 0.037, 0.05, 0.2, 0.0, 0.013, 0.1), _reference_delays,
        id="n8-overrides",
    ),
    pytest.param(3, 8, 0.037, _channel_delays, id="n3-link-metrics"),
    pytest.param(8, 9, 0.05, _channel_delays, id="n8-link-metrics"),
    pytest.param(64, 10, 0.1, _channel_delays, id="n64-link-metrics"),
]


@pytest.mark.parametrize("n, seed, compute, source", _REFERENCE_CASES)
def test_ages_match_reference_bit_for_bit(n, seed, compute, source):
    delays = source(n, seed)
    cfg = AoiConfig(compute_delay_s=compute, rng_seed=seed)
    ages = build_aoi_records(delays, cfg)
    want = _aoi_reference(delays, cfg)
    assert len(ages) == len(want) == n * n
    assert [r.link for r in want] == [(i, j) for i in range(n) for j in range(n)]
    snapped = np.array([r.snapped_age_s for r in want])
    assert ages.tobytes() == snapped.tobytes()
    assert aoi_summary(ages, cfg) == aoi_summary(snapped, cfg)
    assert estimate_scene_ap(ages) == estimate_scene_ap(snapped)
    if not isinstance(compute, tuple):  # one delay for every sender is n copies of it
        copies = AoiConfig(compute_delay_s=(compute,) * n, rng_seed=seed)
        assert build_aoi_records(delays, copies).tobytes() == ages.tobytes()


def test_one_delay_round_matches_reference():
    delays = np.concatenate([_reference_delays(16, 4).ravel(), [0.1, 0.3, 7.25, 1e20]])
    got_rng = np.random.default_rng(12)
    want_rng = np.random.default_rng(12)
    for delay in delays.tolist():
        got = round_one(delay, 0.1, got_rng)
        want = _round_offset(delay, 0.1, want_rng) * 0.1
        assert got == want
    assert got_rng.random() == want_rng.random()


def test_config_validation():
    with pytest.raises(DomainError):
        AoiConfig(sample_period_s=0.0)
    for bad in (-0.1, (0.1, -0.1)):
        with pytest.raises(DomainError, match="^compute_delay_s must be nonnegative and finite$"):
            AoiConfig(compute_delay_s=bad)
    with pytest.raises(DomainError):
        AoiConfig(looptime_s=0.05, sample_period_s=0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            AoiConfig(compute_delay_s=bad)
        with pytest.raises(DomainError):
            AoiConfig(sample_period_s=bad)
        with pytest.raises(DomainError):
            AoiConfig(looptime_s=bad)
        with pytest.raises(DomainError):
            AoiConfig(compute_delay_s=(0.1, bad))
    for bad in (2.5, 3.0, True, -1):
        with pytest.raises(DomainError):
            AoiConfig(rng_seed=bad)
    cfg = AoiConfig(compute_delay_s=0.05, rng_seed=np.int64(4))
    assert len(build_aoi_records(np.zeros((2, 2)), cfg)) == 4


# --- summary -----------------------------------------------------------------


def test_summary_single_record():
    s = aoi_summary(np.array([0.1, 0.1]), AoiConfig(looptime_s=0.1))
    assert s.max_age_s == 0.1 and s.mean_age_s == 0.1
    assert s.age_variance == 0.0 and s.stale_count == 0


def test_summary_mixed_ages():
    s = aoi_summary(np.array([[0.1], [0.3]]), AoiConfig(looptime_s=0.2))
    assert s.max_age_s == 0.3
    assert s.mean_age_s == pytest.approx(0.2)
    assert s.stale_count == 1  # strict exceedance only
    assert s.effective_mean_age_s == pytest.approx(0.4)
    assert s.effective_max_age_s == pytest.approx(0.5)


def test_summary_equal_ages_zero_variance():
    s = aoi_summary(np.full((3, 3), 0.2), AoiConfig(looptime_s=0.1))
    assert s.age_variance == 0.0
    assert s.stale_count == 9


@pytest.mark.parametrize(
    "ages, looptime, statistic",
    [
        ([1e308, 1e308], 0.1, "mean_age_s"),
        ([0.0, 1e200], 0.1, "age_variance"),
        ([1e308], 1e308, "effective_max_age_s"),
        ([np.inf, 0.0], 0.1, "max_age_s"),
    ],
)
def test_summary_refuses_a_statistic_past_the_float_range(ages, looptime, statistic):
    # one rule for every reported statistic, with no RuntimeWarning first
    with pytest.raises(DomainError, match=f"^{statistic} overflows the float range$"):
        aoi_summary(np.array(ages), AoiConfig(looptime_s=looptime))


def test_summary_rejects_empty():
    with pytest.raises(DomainError):
        aoi_summary([], AoiConfig())
    with pytest.raises(DomainError):
        aoi_summary(np.zeros((0, 0)), AoiConfig())
