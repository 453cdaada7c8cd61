"""Channel model: SNR under interference and Shannon-rate delay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vaoi.channel import (
    ChannelParams,
    DistanceMatrix,
    LinkMetrics,
    PowerMatrix,
    SnrClampWarning,
    compute_delay_matrix,
    compute_snr_batch,
    compute_snr_matrix,
    link_metrics,
    offdiag_values,
)
from v2vaoi.errors import (
    AsymmetryError,
    DimensionMismatchError,
    DomainError,
    PositivityError,
)

PARAMS = ChannelParams()


def snr_by_definition(params, d, p, i, j):
    """Independent scalar evaluation: wanted power over path loss, divided by
    the interference from every third vehicle plus noise."""
    n = len(d)
    interference = sum(
        p[k][j] / d[k][j] ** params.alpha for k in range(n) if k not in (i, j)
    )
    return (p[i][j] / d[i][j] ** params.alpha) / (interference + params.noise_w)


def uniform_power(n, total=PARAMS.p_max_w):
    p = np.full((n, n), total / (n - 1))
    np.fill_diagonal(p, 0.0)
    return p


def random_instance(rng, n):
    coords = rng.uniform(0, 100, size=(n, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff**2).sum(-1)) + 5 * (~np.eye(n, dtype=bool))
    p = rng.uniform(PARAMS.p_min_w, PARAMS.p_max_w / (n - 1), size=(n, n))
    np.fill_diagonal(p, 0.0)
    return DistanceMatrix(d), PowerMatrix(p)


# --- SNR -------------------------------------------------------------------


def test_two_vehicle_closed_form():
    dist = DistanceMatrix([[0.0, 10.0], [10.0, 0.0]])
    power = PowerMatrix([[0.0, 23.0], [23.0, 0.0]])
    snr = compute_snr_matrix(PARAMS, dist, power)
    expected = 23.0 / (10.0**3 * 4.14e-14)
    assert snr[0, 1] == pytest.approx(expected, rel=1e-12)
    assert snr[1, 0] == pytest.approx(expected, rel=1e-12)
    assert snr[0, 0] == 0.0 and snr[1, 1] == 0.0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_matches_scalar_definition(n):
    rng = np.random.default_rng(n)
    dist, power = random_instance(rng, n)
    snr = compute_snr_matrix(PARAMS, dist, power)
    for i in range(n):
        for j in range(n):
            if i == j:
                assert snr[i, j] == 0.0
            else:
                ref = snr_by_definition(PARAMS, dist.d, power.p, i, j)
                assert snr[i, j] == pytest.approx(ref, rel=1e-12)


def test_equilateral_symmetry():
    side = 20.0
    d = np.full((3, 3), side)
    np.fill_diagonal(d, 0.0)
    snr = compute_snr_matrix(PARAMS, DistanceMatrix(d), PowerMatrix(uniform_power(3)))
    vals = offdiag_values(snr)
    assert np.all(vals == pytest.approx(vals[0], rel=1e-12))


def test_interference_monotonicity():
    rng = np.random.default_rng(3)
    dist, power = random_instance(rng, 4)
    base = compute_snr_matrix(PARAMS, dist, power)
    boosted = power.p.copy()
    # double everything feeding receiver 1 except the 0->1 signal itself
    for k in range(4):
        if k not in (0, 1):
            boosted[k, 1] *= 2.0
    after = compute_snr_matrix(PARAMS, dist, PowerMatrix(boosted))
    assert after[0, 1] < base[0, 1]


def test_own_power_monotonicity():
    rng = np.random.default_rng(4)
    dist, power = random_instance(rng, 3)
    bumped = power.p.copy()
    bumped[0, 1] *= 1.5
    snr0 = compute_snr_matrix(PARAMS, dist, power)
    snr1 = compute_snr_matrix(PARAMS, dist, PowerMatrix(bumped))
    assert snr1[0, 1] > snr0[0, 1]
    d0 = compute_delay_matrix(PARAMS, snr0)
    d1 = compute_delay_matrix(PARAMS, snr1)
    assert d1[0, 1] < d0[0, 1]


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3))
def test_scale_covariance(scale):
    # scaling all powers and the noise together leaves every SNR unchanged
    rng = np.random.default_rng(99)
    dist, power = random_instance(rng, 4)
    base = compute_snr_matrix(PARAMS, dist, power)
    scaled_params = ChannelParams(
        noise_w=PARAMS.noise_w * scale,
        p_min_w=PARAMS.p_min_w * scale,
        p_max_w=PARAMS.p_max_w * scale,
    )
    scaled = compute_snr_matrix(scaled_params, dist, PowerMatrix(power.p * scale))
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_batch_agrees_with_single():
    rng = np.random.default_rng(5)
    dist, _ = random_instance(rng, 4)
    stack = []
    for _ in range(7):
        _, power = random_instance(rng, 4)
        stack.append(power.p)
    batch = compute_snr_batch(PARAMS, dist, np.array(stack))
    for k, p in enumerate(stack):
        np.testing.assert_array_equal(
            batch[k], compute_snr_matrix(PARAMS, dist, PowerMatrix(p))
        )


def test_snr_dimension_mismatch():
    dist = DistanceMatrix([[0.0, 10.0], [10.0, 0.0]])
    power = PowerMatrix(uniform_power(3))
    with pytest.raises(DimensionMismatchError):
        compute_snr_matrix(PARAMS, dist, power)


@pytest.mark.parametrize(
    "params, side_m",
    [(ChannelParams(alpha=400.0), 10.0), (ChannelParams(alpha=200.0), 0.001)],
    ids=["overflow", "underflow"],
)
def test_path_loss_out_of_float_range(params, side_m):
    d = np.full((3, 3), side_m)
    np.fill_diagonal(d, 0.0)
    with pytest.raises(DomainError, match="out of float range"):
        compute_snr_matrix(params, DistanceMatrix(d), PowerMatrix(uniform_power(3)))


# --- delay -----------------------------------------------------------------


def test_delay_unit_snr_exact():
    snr = np.array([[0.0, 1.0], [1.0, 0.0]])
    delay = compute_delay_matrix(PARAMS, snr)
    assert delay[0, 1] == 0.848
    assert delay[1, 0] == 0.848
    assert delay[0, 0] == 0.0


def test_delay_snr_three():
    params = ChannelParams(payload_bits=1e7)
    delay = compute_delay_matrix(params, np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert delay[0, 1] == pytest.approx(0.5, rel=1e-15)


def test_delay_linear_in_payload():
    rng = np.random.default_rng(6)
    snr = rng.uniform(0.5, 1e6, size=(4, 4))
    np.fill_diagonal(snr, 0.0)
    base = compute_delay_matrix(PARAMS, snr)
    factor = 0.2154
    scaled = compute_delay_matrix(
        ChannelParams(payload_bits=PARAMS.payload_bits * factor), snr
    )
    np.testing.assert_allclose(scaled, base * factor, rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=1e-6, max_value=1e6))
def test_delay_linearity_property(c):
    snr = np.array([[0.0, 2.0, 7.0], [3.0, 0.0, 0.4], [11.0, 5.0, 0.0]])
    base = compute_delay_matrix(PARAMS, snr)
    scaled = compute_delay_matrix(
        ChannelParams(payload_bits=PARAMS.payload_bits * c), snr
    )
    np.testing.assert_allclose(scaled, base * c, rtol=1e-12)


def test_delay_antitone_in_snr():
    snr = np.array([[0.0, 2.0], [3.0, 0.0]])
    raised = snr.copy()
    raised[0, 1] = 2.5
    assert (
        compute_delay_matrix(PARAMS, raised)[0, 1]
        < compute_delay_matrix(PARAMS, snr)[0, 1]
    )


def test_delay_rejects_nonpositive_snr():
    with pytest.raises(DomainError):
        compute_delay_matrix(PARAMS, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DomainError):
        compute_delay_matrix(PARAMS, np.array([[0.0, -2.0], [1.0, 0.0]]))


def test_delay_clamps_denormal_snr_with_warning():
    snr = np.array([[0.0, 1e-320], [1.0, 0.0]])
    with pytest.warns(SnrClampWarning):
        delay = compute_delay_matrix(PARAMS, snr)
    assert np.isfinite(delay[0, 1])


def test_link_metrics_bundle():
    rng = np.random.default_rng(7)
    dist, power = random_instance(rng, 3)
    m = link_metrics(PARAMS, dist, power)
    assert m.n == 3
    assert m.min_snr() == offdiag_values(m.snr).min()
    assert m.max_delay_s() == offdiag_values(m.delay_s).max()


# --- value types -----------------------------------------------------------


def test_channel_params_validation():
    with pytest.raises(DomainError):
        ChannelParams(alpha=0.0)
    with pytest.raises(DomainError):
        ChannelParams(p_min_w=5.0, p_max_w=5.0)
    with pytest.raises(DomainError):
        ChannelParams(payload_bits=0.0)
    with pytest.raises(DomainError):
        ChannelParams(noise_w=-1.0)


def test_distance_matrix_validation():
    with pytest.raises(AsymmetryError):
        DistanceMatrix([[0.0, 10.0], [12.0, 0.0]])
    with pytest.raises(PositivityError):
        DistanceMatrix([[0.0, 10.0, 0.0], [10.0, 0.0, 5.0], [0.0, 5.0, 0.0]])
    with pytest.raises(DomainError):
        DistanceMatrix([[0.0]])
    with pytest.raises(DimensionMismatchError):
        DistanceMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]])
    big = np.full((65, 65), 10.0)
    np.fill_diagonal(big, 0.0)
    with pytest.raises(DomainError):
        DistanceMatrix(big)


def test_power_matrix_validation():
    with pytest.raises(DomainError):
        PowerMatrix([[1.0, 2.0], [2.0, 0.0]])  # nonzero diagonal
    with pytest.raises(DomainError):
        PowerMatrix([[0.0, -1.0], [2.0, 0.0]])


def test_matrices_are_immutable():
    dist = DistanceMatrix([[0.0, 10.0], [10.0, 0.0]])
    with pytest.raises(ValueError):
        dist.d[0, 1] = 5.0


def test_link_metrics_validation():
    with pytest.raises(DomainError):
        LinkMetrics(
            snr=np.array([[0.0, -1.0], [1.0, 0.0]]),
            delay_s=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
    with pytest.raises(DimensionMismatchError):
        LinkMetrics(snr=np.eye(2) + 1, delay_s=np.ones((3, 3)))
