"""Scene generation and distance-matrix file handling."""

import math

import numpy as np
import pytest

from v2vaoi import scenario
from v2vaoi.errors import (
    AsymmetryError,
    DomainError,
    PackingError,
    PositivityError,
    SceneParseError,
)
from v2vaoi.scenario import (
    ScenarioSpec,
    generate_scene,
    load_distance_matrix,
    save_distance_matrix,
)


# fixed placements come from coords scene files


def test_fixed_coordinates_3_4_5(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("coords\n1 -2\n4 2\n")
    dist = load_distance_matrix(path)
    assert dist.n == 2
    assert dist.d[0, 1] == 5.0
    assert dist.d[1, 0] == 5.0
    assert dist.d[0, 0] == dist.d[1, 1] == 0.0


def test_fixed_equilateral(tmp_path):
    h = 10.0 * math.sqrt(3)
    path = tmp_path / "scene.txt"
    path.write_text(f"coords\n0 0\n20 0\n10 {h!r}\n")
    dist = load_distance_matrix(path)
    off = dist.d[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 20.0, rtol=1e-12)


def test_generation_deterministic_per_seed():
    spec = ScenarioSpec(4, rng_seed=99)
    a, _ = generate_scene(spec)
    b, _ = generate_scene(spec)
    np.testing.assert_array_equal(a.d, b.d)
    c, _ = generate_scene(ScenarioSpec(4, rng_seed=100))
    assert not np.array_equal(a.d, c.d)


def test_generation_respects_separation():
    for seed in range(5):
        dist, _ = generate_scene(ScenarioSpec(5, min_separation_m=8.0, rng_seed=seed))
        off = dist.d[~np.eye(5, dtype=bool)]
        assert off.min() >= 8.0


def test_generated_matrices_satisfy_triangle_inequality():
    dist, _ = generate_scene(ScenarioSpec(5, rng_seed=3))
    d = dist.d
    for i in range(5):
        for j in range(5):
            for k in range(5):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_packing_error_when_box_too_crowded():
    spec = ScenarioSpec(20, box_side_m=21.0, min_separation_m=10.0, rng_seed=0)
    with pytest.raises(PackingError):
        generate_scene(spec)


def _generate_scene_reference(spec, max_attempts=10_000):
    """generate_scene before it drew its attempts in blocks, kept verbatim
    as the reference but for the attempt cap, a parameter here: one uniform
    pair per attempt, tested by np.hypot against the vehicles placed so
    far, and distances from the (n, n, 2) differences.  Also returns the
    attempts it used."""
    n = spec.n_vehicles
    rng = np.random.default_rng(spec.rng_seed)
    coords = np.empty((n, 2))
    placed = 0
    attempts = 0
    while placed < n:
        attempts += 1
        if attempts > max_attempts:
            raise PackingError(
                f"could not place {n} vehicles at "
                f"{spec.min_separation_m} m separation in a "
                f"{spec.box_side_m} m box after {max_attempts} attempts"
            )
        candidate = rng.uniform(0.0, spec.box_side_m, size=2)
        gap = candidate - coords[:placed]
        if (np.hypot(gap[:, 0], gap[:, 1]) >= spec.min_separation_m).all():
            coords[placed] = candidate
            placed += 1
    diff = coords[:, np.newaxis, :] - coords[np.newaxis, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    return d, coords, attempts


@pytest.mark.parametrize(
    "spec",
    [
        *[
            pytest.param(ScenarioSpec(n, rng_seed=seed), id=f"n{n}-seed{seed}")
            for n in (2, 3, 5, 8, 16, 32, 64)
            for seed in (0, 7, 12345)
        ],
        # crowded: most candidates are rejected
        pytest.param(ScenarioSpec(64, box_side_m=60.0, rng_seed=1), id="n64-box60"),
        pytest.param(ScenarioSpec(64, box_side_m=60.0, rng_seed=2), id="n64-box60-seed2"),
        # cannot be packed: both sides must give up with the same message
        pytest.param(
            ScenarioSpec(20, box_side_m=21.0, min_separation_m=10.0, rng_seed=0),
            id="packing-failure",
        ),
        # every n in two crowded boxes: 30 m at 3 m places them all, 40 m at
        # 5 m rejects many candidates and gives up from n = 50 on
        *[
            pytest.param(
                ScenarioSpec(n, box_side_m=box_m, min_separation_m=sep_m, rng_seed=n),
                id=f"n{n}-box{box_m:g}-sep{sep_m:g}",
            )
            for box_m, sep_m in ((30.0, 3.0), (40.0, 5.0))
            for n in range(2, 65)
        ],
    ],
)
def test_generation_matches_reference_bit_for_bit(spec):
    try:
        want_d, want_coords, _ = _generate_scene_reference(spec)
    except PackingError as exc:
        with pytest.raises(PackingError) as got:
            generate_scene(spec)
        assert str(got.value) == str(exc)
        return
    dist, coords = generate_scene(spec)
    assert coords.shape == want_coords.shape
    assert coords.tobytes() == want_coords.tobytes()
    assert dist.d.tobytes() == want_d.tobytes()


def test_packing_error_after_exactly_10000_attempts(monkeypatch):
    spec = ScenarioSpec(20, box_side_m=21.0, min_separation_m=10.0, rng_seed=0)
    with pytest.raises(PackingError) as want:
        _generate_scene_reference(spec)
    drawn = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def uniform(self, low, high, size):
            drawn.append(math.prod(size))
            return self._rng.uniform(low, high, size=size)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    with pytest.raises(PackingError) as got:
        generate_scene(spec)
    assert str(got.value) == str(want.value)
    assert "after 10000 attempts" in str(got.value)
    assert sum(drawn) == 2 * 10_000  # one x, y pair per attempt, none past the cap


@pytest.mark.parametrize(
    "spec",
    [
        ScenarioSpec(64, box_side_m=60.0, rng_seed=1),
        ScenarioSpec(40, box_side_m=40.0, min_separation_m=5.0, rng_seed=3),
        ScenarioSpec(5, rng_seed=7),
    ],
    ids=["n64-box60", "n40-box40", "n5"],
)
def test_attempt_cap_is_exact(spec, monkeypatch):
    # a cap of exactly the attempts the placement needs places every
    # vehicle; one fewer gives up, naming that cap.  The crowded boxes
    # reject candidates, so the cap falls inside a block.
    _, want_coords, used = _generate_scene_reference(spec)
    monkeypatch.setattr(scenario, "_MAX_PLACEMENT_ATTEMPTS", used)
    assert generate_scene(spec)[1].tobytes() == want_coords.tobytes()
    monkeypatch.setattr(scenario, "_MAX_PLACEMENT_ATTEMPTS", used - 1)
    with pytest.raises(PackingError) as got:
        generate_scene(spec)
    with pytest.raises(PackingError) as want:
        _generate_scene_reference(spec, max_attempts=used - 1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("box_m, sep_m", [(1e-300, 1e-301), (1e308, 1.0)])
def test_distance_out_of_float_range_names_the_box(box_m, sep_m):
    # the candidates pass their np.hypot test, but dx*dx + dy*dy underflows
    # to 0 or overflows to inf
    spec = ScenarioSpec(3, box_side_m=box_m, min_separation_m=sep_m)
    with pytest.raises(DomainError) as got:
        generate_scene(spec)
    assert str(got.value) == (
        f"box_side_m {box_m!r} and min_separation_m {sep_m!r} "
        "put a distance between vehicles out of float range"
    )


def test_spec_validation():
    with pytest.raises(DomainError):
        ScenarioSpec(1)
    with pytest.raises(DomainError):
        ScenarioSpec(3, box_side_m=9.0, min_separation_m=5.0)
    with pytest.raises(DomainError):
        ScenarioSpec(3, box_side_m=float("inf"))
    # counts and seeds must be integers, as in the solver configs
    for bad in (2.5, 3.0):
        with pytest.raises(DomainError):
            ScenarioSpec(bad)
    for bad in (2.5, 3.0, True, -1):
        with pytest.raises(DomainError):
            ScenarioSpec(3, rng_seed=bad)
    spec = ScenarioSpec(np.int64(3), rng_seed=np.uint64(2**63))
    assert generate_scene(spec)[1].shape == (3, 2)


# --- files -------------------------------------------------------------------


def test_load_matrix_with_header(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("# a comment\n2\n0 10\n10 0\n")
    dist = load_distance_matrix(path)
    assert dist.n == 2
    assert dist.d[0, 1] == 10.0


def test_load_matrix_without_header_and_commas(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("0, 10, 20\n10, 0, 15\n20, 15, 0\n")
    dist = load_distance_matrix(path)
    assert dist.n == 3
    assert dist.d[2, 1] == 15.0


def test_load_coordinates_form(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("coords\n0 0\n3 4\n")
    dist = load_distance_matrix(path)
    assert dist.d[0, 1] == 5.0


def test_load_asymmetric_rejected(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("0 10\n12 0\n")
    with pytest.raises(AsymmetryError):
        load_distance_matrix(path)


def test_load_zero_offdiagonal_rejected(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("0 10 0\n10 0 5\n0 5 0\n")
    with pytest.raises(PositivityError):
        load_distance_matrix(path)


@pytest.mark.parametrize(
    "content",
    [
        "",
        "0 10\n10\n",
        "2\n0 10\n",
        "0 ten\nten 0\n",
        "coords\n1 2 3\n4 5 6\n",
        "nan\n0 10\n10 0\n",
        "inf\n0 10\n10 0\n",
        "1e400\n0 10\n10 0\n",
    ],
)
def test_load_parse_errors(tmp_path, content):
    path = tmp_path / "scene.txt"
    path.write_text(content)
    with pytest.raises(SceneParseError):
        load_distance_matrix(path)


def test_load_missing_file():
    with pytest.raises(SceneParseError):
        load_distance_matrix("/nonexistent/scene.txt")


def test_save_load_round_trip_bit_exact(tmp_path):
    dist, _ = generate_scene(ScenarioSpec(5, rng_seed=17))
    path = tmp_path / "scene.txt"
    save_distance_matrix(dist, path)
    reloaded = load_distance_matrix(path)
    np.testing.assert_array_equal(reloaded.d, dist.d)
    save_distance_matrix(reloaded, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_text() == path.read_text()
