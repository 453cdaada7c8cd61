"""Channel model: SNR under interference and Shannon-rate delay."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vaoi.allocator import (
    AllocationProblem,
    GeneticConfig,
    GreedyConfig,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
)
from v2vaoi.channel import (
    ChannelParams,
    DistanceMatrix,
    PowerMatrix,
    _snr,
    compute_delay_matrix,
    compute_snr_matrix,
    from_offdiag_rows,
    offdiag_mask,
    offdiag_rows,
    offdiag_values,
    path_loss,
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


def _snr_full_matrix(loss, powers, noise_w):
    """_snr as it stood on full (n, n) matrices or (m, n, n) stacks, kept
    verbatim as the reference for the off-diagonal row kernel."""
    gain = powers / loss
    incoming = gain.sum(axis=-2, keepdims=True)  # per receiver j: sum over all transmitters
    interference = incoming - gain  # drop the k = i term
    return gain / (interference + noise_w)


def test_batch_agrees_with_single():
    # the GA's fitness runs _snr on a whole population stack, greedy on one
    # scene's rows; both must equal the full-matrix formula bit for bit
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8, 16, 64):
        mask = offdiag_mask(n)
        for _ in range(4):
            dist, _ = random_instance(rng, n)
            loss = path_loss(PARAMS, dist)
            # the full-matrix formula's loss: the same rows on a unit diagonal
            full_loss = from_offdiag_rows(loss) + np.eye(n)
            # log-uniform powers over the whole per-link range, so incoming
            # sums mix magnitudes and rounding order shows in the last bit
            stack = np.exp(
                rng.uniform(np.log(PARAMS.p_min_w), np.log(PARAMS.p_max_w), size=(8, n, n))
            )
            stack[:, ~mask] = 0.0
            want = _snr_full_matrix(full_loss, stack, PARAMS.noise_w)
            rows = stack[:, mask].reshape(8, n, n - 1)
            batch = _snr(loss, rows, PARAMS.noise_w)
            assert batch.tobytes() == want[:, mask].tobytes()
            for k in range(8):
                single = _snr(loss, rows[k], PARAMS.noise_w)
                assert single.tobytes() == batch[k].tobytes()
                matrix = compute_snr_matrix(PARAMS, dist, PowerMatrix(stack[k]))
                assert matrix.tobytes() == want[k].tobytes()


def test_path_loss_row_layout():
    rng = np.random.default_rng(8)
    for n in (2, 3, 16):
        dist, _ = random_instance(rng, n)
        loss = path_loss(PARAMS, dist)
        assert loss.shape == (n, n - 1) and not loss.flags.writeable
        # the off-diagonal of the full-matrix power, bit for bit
        assert loss.tobytes() == offdiag_rows(dist.d**PARAMS.alpha).tobytes()


def test_snr_dimension_mismatch():
    dist = DistanceMatrix([[0.0, 10.0], [10.0, 0.0]])
    power = PowerMatrix(uniform_power(3))
    with pytest.raises(DimensionMismatchError):
        compute_snr_matrix(PARAMS, dist, power)


@pytest.mark.parametrize(
    "params, side_m",
    [
        (ChannelParams(alpha=400.0), 10.0),
        (ChannelParams(alpha=200.0), 0.001),
        # a subnormal loss (about 3e-309): p_max_w / loss overflows
        (ChannelParams(alpha=1025.0), 0.5),
    ],
    ids=["overflow", "underflow", "subnormal"],
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


def test_delay_scales_exactly_with_rate_factor():
    # the channel model applies the scale as one multiply after the division,
    # so a scaled delay is bit for bit the unscaled one times the factor
    rng = np.random.default_rng(6)
    snr = rng.uniform(0.5, 1e6, size=(5, 5))
    np.fill_diagonal(snr, 0.0)
    base = compute_delay_matrix(PARAMS, snr)
    for factor in (1.0, 0.5, 0.2154, 1e-3):
        scaled = compute_delay_matrix(ChannelParams(rate_factor=factor), snr)
        assert scaled.tobytes() == (base * factor).tobytes()


def test_rate_factor_underflow_names_the_factor():
    snr = np.array([[0.0, 2.0], [3.0, 0.0]])
    with pytest.raises(DomainError, match=r"rate_factor 5e-324 underflows a delay to 0"):
        compute_delay_matrix(ChannelParams(rate_factor=5e-324), snr)


@pytest.mark.parametrize(
    "params",
    [ChannelParams(payload_bits=1e-310), ChannelParams(payload_bits=5e-324),
     ChannelParams(bandwidth_hz=1e308)],
    ids=["subnormal_payload", "least_payload", "huge_bandwidth"],
)
def test_delay_underflow_names_payload_and_bandwidth(params):
    # the unscaled delay is out of range, so the default rate factor is not
    # to blame
    snr = np.array([[0.0, 2.0], [3.0, 0.0]])
    with pytest.raises(DomainError) as info:
        compute_delay_matrix(params, snr)
    assert str(info.value).startswith(
        f"payload {params.payload_bits!r} bits over bandwidth {params.bandwidth_hz!r} Hz "
        "underflows a delay to "
    )
    assert "rate_factor" not in str(info.value)


def test_rate_factor_subnormal_delay_names_the_factor():
    # every delay is 0.848 s, which scales to the smallest subnormal, not to 0
    snr = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(
        DomainError,
        match=r"rate_factor 5e-324 underflows a delay to 4\.94e-324 s, below the normal",
    ):
        compute_delay_matrix(ChannelParams(rate_factor=5e-324), snr)
    # delays of 1.45 s stay normal at the smallest normal factor
    tiny = np.finfo(np.float64).tiny
    delay = compute_delay_matrix(ChannelParams(rate_factor=tiny), snr / 2)
    assert offdiag_values(delay).min() >= tiny


@pytest.mark.parametrize(
    "params, snr",
    [
        (ChannelParams(payload_bits=1e308, bandwidth_hz=1e-300), 3.0),
        # the rate itself underflows to 0, so the division is by zero
        (ChannelParams(bandwidth_hz=1e-300), 1e-300),
    ],
    ids=["overflow", "zero_rate"],
)
def test_delay_overflow_names_payload_and_bandwidth(params, snr):
    with pytest.raises(
        DomainError,
        match=re.escape(f"payload {params.payload_bits!r} bits over bandwidth 1e-300 Hz overflows"),
    ):
        compute_delay_matrix(params, np.array([[0.0, snr], [snr, 0.0]]))


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


def test_delay_of_a_tiny_snr_is_its_true_delay():
    # no floor under the SNR: 1e-305 gets its own delay, without a warning,
    # and an SNR whose delay leaves float64 is an error that names it
    snr = np.array([[0.0, 1e-305], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delay = compute_delay_matrix(PARAMS, snr)
    rate_bps = PARAMS.bandwidth_hz * (np.log1p(1e-305) / np.log(2.0))
    assert delay[0, 1] == PARAMS.payload_bits / rate_bps
    assert 5.8e304 < delay[0, 1] < 5.9e304
    with pytest.raises(DomainError, match=r"overflows a delay at min SNR 1e-320$"):
        compute_delay_matrix(PARAMS, np.array([[0.0, 1e-320], [1.0, 0.0]]))


def test_solve_results_hold_their_link_matrices():
    rng = np.random.default_rng(7)
    dist, _ = random_instance(rng, 5)
    problem = AllocationProblem(PARAMS, dist)
    for result in (
        default_pa(problem),
        greedy_pa(problem, GreedyConfig(max_epochs=200)),
        genetic_pa(problem, GeneticConfig(max_generations=50)),
        exact_pa(problem),
    ):
        assert not result.snr.flags.writeable
        assert not result.delay_s.flags.writeable
        snr = compute_snr_matrix(PARAMS, dist, result.power)
        assert result.snr.tobytes() == snr.tobytes()
        assert result.delay_s.tobytes() == compute_delay_matrix(PARAMS, snr).tobytes()
        assert result.objective_min_snr == offdiag_values(result.snr).min()
        assert result.objective_max_delay_s == offdiag_values(result.delay_s).max()


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
    for factor in (0.0, 1.5, -1.0, float("nan")):
        with pytest.raises(DomainError, match=r"rate_factor must be in \(0, 1\]"):
            ChannelParams(rate_factor=factor)
    assert ChannelParams(rate_factor=1.0).rate_factor == 1.0


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

