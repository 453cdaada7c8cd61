"""Probabilistic rounding to the sampling grid and per-link age records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vaoi.aoi import (
    AoiConfig,
    aoi_summary,
    build_aoi_records,
    probabilistic_round,
)
from v2vaoi.channel import LinkMetrics
from v2vaoi.errors import DimensionMismatchError, DomainError


def test_exact_multiple_never_moves():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert probabilistic_round(0.2, 0.1, rng) == 0.2


def test_zero_delay_stays_zero():
    rng = np.random.default_rng(0)
    assert probabilistic_round(0.0, 0.1, rng) == 0.0


def test_halfway_point_statistics():
    rng = np.random.default_rng(1234)
    draws = np.array([probabilistic_round(0.25, 0.1, rng) for _ in range(100_000)])
    values = set(np.unique(draws))
    assert values == {2 * 0.1, 3 * 0.1}
    assert abs(draws.mean() - 0.25) < 0.001


def test_negative_delay_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        probabilistic_round(-0.1, 0.1, rng)
    with pytest.raises(DomainError):
        probabilistic_round(0.1, 0.0, rng)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            probabilistic_round(bad, 0.1, rng)
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
    snapped = probabilistic_round(delay, period, rng)
    offset = round(snapped / period)
    assert snapped == offset * period
    assert abs(snapped - delay) < period * (1 + 1e-9)


def test_expectation_preservation_bound():
    # deviation of the empirical mean stays within 3 * period * sqrt(0.25/N)
    rng = np.random.default_rng(7)
    period, n_draws = 0.1, 100_000
    for delay in (0.13, 0.27, 0.409):
        mean = np.mean([probabilistic_round(delay, period, rng) for _ in range(n_draws)])
        assert abs(mean - delay) < 3 * period * np.sqrt(0.25 / n_draws)


# --- records -----------------------------------------------------------------


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
    records = build_aoi_records(delay_matrix_3(), cfg)
    assert len(records) == 9
    links = [r.link for r in records]
    assert links == [(i, j) for i in range(3) for j in range(3)]
    for r in records:
        i, j = r.link
        assert r.compute_delay_s == 0.1
        if i == j:
            assert r.comm_delay_s == 0.0
        assert r.total_delay_s == r.comm_delay_s + r.compute_delay_s
        assert r.snapped_age_s == r.timestamp_offset * cfg.sample_period_s
        assert abs(r.snapped_age_s - r.total_delay_s) < cfg.sample_period_s


def test_records_half_period_split():
    cfg = AoiConfig(rng_seed=11)
    seen = set()
    for seed in range(40):
        records = build_aoi_records(
            np.array([[0.0, 0.05], [0.05, 0.0]]), AoiConfig(rng_seed=seed)
        )
        for r in records:
            if r.link[0] != r.link[1]:
                seen.add(r.timestamp_offset)
    assert seen == {0, 1}


def test_records_exact_compute_delay():
    records = build_aoi_records(np.zeros((2, 2)), AoiConfig(compute_delay_s=0.1))
    assert all(r.snapped_age_s == 0.1 for r in records)


def test_records_all_zero():
    records = build_aoi_records(np.zeros((3, 3)), AoiConfig())
    assert all(r.snapped_age_s == 0.0 and r.timestamp_offset == 0 for r in records)


def test_records_deterministic_per_seed():
    cfg = AoiConfig(rng_seed=21)
    a = build_aoi_records(delay_matrix_3(), cfg)
    b = build_aoi_records(delay_matrix_3(), cfg)
    assert a == b


def test_records_accept_link_metrics():
    snr = np.array([[0.0, 2.0], [3.0, 0.0]])
    delay = np.array([[0.0, 0.4], [0.3, 0.0]])
    metrics = LinkMetrics(snr=snr, delay_s=delay)
    records = build_aoi_records(metrics, AoiConfig(rng_seed=0))
    assert records[1].comm_delay_s == 0.4


def test_records_per_vehicle_override():
    cfg = AoiConfig(per_vehicle_compute_delay_s=(0.1, 0.3), rng_seed=0)
    records = build_aoi_records(np.zeros((2, 2)), cfg)
    by_link = {r.link: r for r in records}
    assert by_link[(0, 1)].compute_delay_s == 0.1
    assert by_link[(1, 0)].compute_delay_s == 0.3
    with pytest.raises(DimensionMismatchError):
        build_aoi_records(np.zeros((3, 3)), cfg)


def test_config_validation():
    with pytest.raises(DomainError):
        AoiConfig(sample_period_s=0.0)
    with pytest.raises(DomainError):
        AoiConfig(compute_delay_s=-0.1)
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
            AoiConfig(per_vehicle_compute_delay_s=(0.1, bad))


# --- summary -----------------------------------------------------------------


def _records_with_ages(ages):
    cfg = AoiConfig()
    records = build_aoi_records(np.zeros((len(ages), len(ages))), cfg)
    out = []
    for r, age in zip(records[: len(ages)], ages):
        offset = round(age / 0.1)
        out.append(
            type(r)(
                link=r.link,
                comm_delay_s=age,
                compute_delay_s=0.0,
                total_delay_s=age,
                snapped_age_s=age,
                timestamp_offset=offset,
            )
        )
    return out


def test_summary_single_record():
    s = aoi_summary(_records_with_ages([0.1, 0.1]), looptime_s=0.1)
    assert s.max_age_s == 0.1 and s.mean_age_s == 0.1
    assert s.age_variance == 0.0 and s.stale_count == 0


def test_summary_mixed_ages():
    s = aoi_summary(_records_with_ages([0.1, 0.3]), looptime_s=0.2)
    assert s.max_age_s == 0.3
    assert s.mean_age_s == pytest.approx(0.2)
    assert s.stale_count == 1  # strict exceedance only
    assert s.effective_mean_age_s == pytest.approx(0.4)
    assert s.effective_max_age_s == pytest.approx(0.5)


def test_summary_equal_ages_zero_variance():
    s = aoi_summary(_records_with_ages([0.2, 0.2, 0.2]), looptime_s=0.1)
    assert s.age_variance == 0.0
    assert s.stale_count == 3


def test_summary_rejects_empty():
    with pytest.raises(DomainError):
        aoi_summary([], looptime_s=0.1)
