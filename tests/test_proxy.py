"""Delay-to-AP degradation curves and the scene-level proxy estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vaoi.errors import DomainError
from v2vaoi.proxy import (
    BACKBONE_CURVE,
    CONSTANT_TRANSMISSION_CURVE,
    LINEAR_COEFFICIENT_CURVE,
    DegradationCurve,
    estimate_ap,
    estimate_scene_ap,
)

CURVES = (BACKBONE_CURVE, CONSTANT_TRANSMISSION_CURVE, LINEAR_COEFFICIENT_CURVE)


def test_every_sample_reproduced_bit_exactly():
    for curve in CURVES:
        for row in curve.samples:
            assert estimate_ap(curve, row[0]) == (row[1], row[2], row[3])


def custom_curves():
    """One hand-made curve and 50 drawn ones, from a small set of AP levels
    so that columns tie and hit 0.0: where an AP falls, 0.0 * (s_hi - s_lo)
    is -0.0, and where it is flat, 0.0."""
    hand = [
        [0.0, 1.0, 1.0, 0.7],
        [0.1, 1.0, 0.7, 0.7],
        [0.25, 0.7, 0.3, 0.0],
        [0.4, 0.3, 0.0, 0.0],
        [0.7, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
    curves = [DegradationCurve("hand", hand)]
    rng = np.random.default_rng(25)
    for _ in range(50):
        k = int(rng.integers(3, 9))
        delays = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, k - 1))])
        aps = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0], size=(k, 3))
        # non-increasing down the delays and across ap30 >= ap50 >= ap70
        aps = np.sort(np.sort(aps, axis=1)[:, ::-1], axis=0)[::-1]
        curves.append(DegradationCurve("drawn", np.column_stack([delays, aps])))
    return curves


def test_custom_curve_samples_exact_and_neighbours_between_rows():
    for curve in custom_curves():
        s = curve.samples
        for k in range(len(s)):
            assert np.array(estimate_ap(curve, s[k, 0])).tobytes() == s[k, 1:].tobytes()
        for k in range(1, len(s) - 1):  # interior samples
            below = estimate_ap(curve, np.nextafter(s[k, 0], 0.0))
            above = estimate_ap(curve, np.nextafter(s[k, 0], np.inf))
            assert np.all(s[k, 1:] <= below) and np.all(below <= s[k - 1, 1:])
            assert np.all(s[k + 1, 1:] <= above) and np.all(above <= s[k, 1:])


def test_backbone_midpoint_interpolation():
    ap = estimate_ap(BACKBONE_CURVE, 0.05)
    assert ap == pytest.approx((0.8595, 0.784, 0.4765), rel=1e-12)


def test_clamps_beyond_last_sample():
    assert estimate_ap(BACKBONE_CURVE, 2.0) == (0.039, 0.024, 0.015)
    assert estimate_ap(CONSTANT_TRANSMISSION_CURVE, 99.0) == (0.500, 0.332, 0.196)


@pytest.mark.parametrize(
    "delay",
    [
        pytest.param(0.05, id="below-first-sample"),
        pytest.param(0.2, id="at-a-sample"),
        pytest.param(0.25, id="between-samples"),
        pytest.param(3.0, id="past-last-sample"),
    ],
)
def test_estimate_returns_python_floats(delay):
    curve = DegradationCurve(
        "offset", [[0.1, 0.9, 0.8, 0.7], [0.2, 0.8, 0.6, 0.5], [0.3, 0.4, 0.3, 0.2]]
    )
    ap = estimate_ap(curve, delay)
    assert len(ap) == 3
    assert all(type(v) is float for v in ap)


def test_negative_delay_rejected():
    with pytest.raises(DomainError):
        estimate_ap(BACKBONE_CURVE, -0.1)
    with pytest.raises(DomainError):
        estimate_ap(BACKBONE_CURVE, float("nan"))


@settings(max_examples=200, deadline=None)
@given(delay=st.floats(min_value=0.0, max_value=3.0))
def test_interpolation_preserves_iou_ordering(delay):
    for curve in CURVES:
        ap30, ap50, ap70 = estimate_ap(curve, delay)
        assert ap30 >= ap50 >= ap70
        assert 0.0 <= ap70 and ap30 <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    lo=st.floats(min_value=0.0, max_value=3.0),
    hi=st.floats(min_value=0.0, max_value=3.0),
)
def test_interpolation_monotone_non_increasing(lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    for curve in CURVES:
        a = estimate_ap(curve, lo)
        b = estimate_ap(curve, hi)
        assert all(x >= y - 1e-12 for x, y in zip(a, b))


def test_curve_validation_rejects_bad_data():
    ok = [0.0, 0.9, 0.8, 0.7]
    for samples, message in [
        ([[0.0, 0.5, 0.6, 0.4]], "ap30 >= ap50 >= ap70"),  # ap30 < ap50
        ([[0.0, 0.9, 0.6, 0.7]], "ap30 >= ap50 >= ap70"),  # ap50 < ap70
        ([ok, [0.1, 0.95, 0.8, 0.7]], "non-increasing"),  # ap30 rises
        ([ok, [0.1, 0.9, 0.85, 0.7]], "non-increasing"),  # ap50 rises
        ([ok, [0.1, 0.9, 0.8, 0.75]], "non-increasing"),  # ap70 rises
        # ap50 rises and passes ap30: the delay check comes first
        ([ok, [0.1, 0.85, 0.9, 0.7]], "non-increasing"),
        ([[0.1, 0.9, 0.8, 0.7], [0.1, 0.9, 0.8, 0.7]], "strictly increasing"),
        ([[-0.1, 0.9, 0.8, 0.7]], "nonnegative"),
        ([[0.0, 1.2, 0.8, 0.7]], r"\[0, 1\]"),
        ([ok, [0.1, float("nan"), 0.8, 0.7]], "NaN"),
        ([[float("nan"), 0.9, 0.8, 0.7]], "NaN"),
    ]:
        with pytest.raises(DomainError, match=message):
            DegradationCurve("bad", samples)


# --- scene estimate ------------------------------------------------------------


def test_scene_all_fresh():
    est = estimate_scene_ap(np.zeros((2, 2)))
    assert (est.ap30, est.ap50, est.ap70) == (0.864, 0.859, 0.805)


def test_scene_uniform_delay_uses_constant_curve():
    est = estimate_scene_ap(np.full((2, 2), 0.2))
    assert est.age_spread_s == 0.0
    assert (est.ap30, est.ap50, est.ap70) == (0.750, 0.481, 0.227)


def test_scene_spread_takes_entrywise_minimum():
    # mean 0.1 scores (0.860, 0.810, 0.435); spread 0.5 scores (0.643, 0.440, 0.253)
    est = estimate_scene_ap(np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
    assert est.mean_age_s == pytest.approx(0.1)
    assert est.age_spread_s == pytest.approx(0.5)
    assert (est.ap30, est.ap50, est.ap70) == pytest.approx((0.643, 0.440, 0.253))
    assert est.constant_component == pytest.approx((0.860, 0.810, 0.435))
    assert "proxy" in est.label


def test_scene_estimate_rejects_empty():
    with pytest.raises(DomainError):
        estimate_scene_ap([])
    with pytest.raises(DomainError):
        estimate_scene_ap(np.zeros((0, 0)))



def test_scene_estimate_takes_custom_curves():
    # own measurements go in as DegradationCurve objects, not files
    flat = DegradationCurve("flat", [[0.0, 0.9, 0.8, 0.7], [1.0, 0.9, 0.8, 0.7]])
    steep = DegradationCurve("steep", [[0.0, 0.6, 0.5, 0.4], [0.5, 0.2, 0.1, 0.0]])
    ages = np.array([[0.0, 0.5], [0.25, 0.0]])
    est = estimate_scene_ap(ages, constant_curve=flat, spread_curve=steep)
    assert est.constant_component == (0.9, 0.8, 0.7)
    assert est.spread_component == (0.2, 0.1, 0.0)
    assert (est.ap30, est.ap50, est.ap70) == (0.2, 0.1, 0.0)
    # mean age 0.1875 lies 3/8 of the way along steep's only segment
    est = estimate_scene_ap(ages, constant_curve=steep, spread_curve=flat)
    assert est.constant_component == pytest.approx((0.45, 0.35, 0.25), rel=1e-12)
    assert (est.ap30, est.ap50, est.ap70) == est.constant_component
