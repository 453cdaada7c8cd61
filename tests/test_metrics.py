"""Delay statistics and the multi-trial strategy comparison."""

import json
from dataclasses import replace

import numpy as np
import pytest

from v2vaoi import allocator
from v2vaoi.allocator import AllocationProblem, GreedyConfig, default_pa, exact_pa, greedy_pa
from v2vaoi.errors import DimensionMismatchError, DomainError, SimulationError
from v2vaoi.metrics import (
    ComparisonConfig,
    _run_trial,
    delay_mean,
    delay_rmse,
    delay_variance,
    run_comparison,
    scene_seed,
    solve_scene,
)
from v2vaoi.scenario import ScenarioSpec, generate_scene

FAST_CONFIG = ComparisonConfig(greedy=GreedyConfig(max_epochs=300))


def square(offdiag_pairs):
    """Build a 2x2 matrix from its (d01, d10) off-diagonal pair."""
    return np.array([[0.0, offdiag_pairs[0]], [offdiag_pairs[1], 0.0]])


def test_rmse_identical_is_zero():
    m = square((0.3, 0.5))
    assert delay_rmse(m, m) == 0.0


def test_rmse_hand_value():
    a = square((0.3, 0.5))
    b = square((0.1, 0.1))
    assert delay_rmse(a, b) == pytest.approx(np.sqrt((0.04 + 0.16) / 2), rel=1e-12)


def test_rmse_symmetric():
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0, 5, (2, 3, 3))
    assert delay_rmse(a, b) == delay_rmse(b, a)


def test_rmse_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        delay_rmse(np.zeros((2, 2)), np.zeros((3, 3)))


def test_rmse_pseudometric_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b, c = rng.uniform(0, 10, (3, 4, 4))
        assert delay_rmse(a, c) <= delay_rmse(a, b) + delay_rmse(b, c) + 1e-12


def test_variance_examples():
    assert delay_variance(square((0.2, 0.2))) == 0.0
    assert delay_variance(square((0.1, 0.3))) == pytest.approx(0.01, rel=1e-12)
    shifted = square((0.1, 0.3)) + 5.0
    np.fill_diagonal(shifted, 0.0)
    assert delay_variance(shifted) == pytest.approx(0.01, rel=1e-12)


def test_mean_examples():
    assert delay_mean(square((0.1, 0.3))) == pytest.approx(0.2)
    uniform = np.full((4, 4), 0.7)
    np.fill_diagonal(uniform, 0.0)
    assert delay_mean(uniform) == pytest.approx(0.7)


def test_aggregates_ignore_diagonal():
    a = square((0.3, 0.5))
    b = a.copy()
    np.fill_diagonal(b, 99.0)
    assert delay_mean(a) == delay_mean(b)
    assert delay_variance(a) == delay_variance(b)
    assert delay_rmse(a, b) == 0.0


# --- run_comparison -----------------------------------------------------------


def test_comparison_two_vehicles_all_strategies_agree():
    # with no interference every strategy lands on the unique optimum
    spec = ScenarioSpec(np.int64(2), rng_seed=5)
    comp = run_comparison(spec, trials=np.int64(1), config=FAST_CONFIG)
    for agg in comp["aggregates"]:
        assert agg["rmse_vs_reference"] < 1e-3, agg
    # numpy counts still give a record that JSON can write
    assert json.loads(json.dumps(comp))["n"] == 2


def test_comparison_structure_and_determinism():
    spec = ScenarioSpec(3, rng_seed=8)
    a = run_comparison(spec, trials=2, config=FAST_CONFIG)
    b = run_comparison(spec, trials=2, config=FAST_CONFIG)  # a repeat run
    assert a == b
    assert list(a) == [
        "type", "n", "trials", "reference_strategy", "variance_convention",
        "aggregates", "per_trial",
    ]
    assert (a["type"], a["n"], a["trials"]) == ("comparison", 3, 2)
    assert [t["trial_index"] for t in a["per_trial"]] == [0, 1]
    names = [agg["strategy"] for agg in a["aggregates"]]
    assert names == ["default", "greedy_epoch300", "exact"]
    for trial in a["per_trial"]:
        assert [s["strategy"] for s in trial["strategies"]] == names


def test_comparison_greedy_beats_default_every_trial():
    comp = run_comparison(ScenarioSpec(3, rng_seed=17), trials=3, config=FAST_CONFIG)
    for trial in comp["per_trial"]:
        rmse = {s["strategy"]: s["rmse_vs_reference"] for s in trial["strategies"]}
        assert rmse["greedy_epoch300"] < rmse["default"]


def test_comparison_rate_factor_scales_delays_exactly():
    # each strategy's delays on trial 0's scene, solved as _run_trial solves them
    spec = ScenarioSpec(3, rng_seed=9)
    dist, _ = generate_scene(replace(spec, rng_seed=scene_seed(spec.rng_seed, 0)))
    names = ("default", "greedy", "exact")
    base = solve_scene(FAST_CONFIG, dist, names, spec.rng_seed, 0)
    params = replace(FAST_CONFIG.params, rate_factor=0.2154)
    scaled = solve_scene(replace(FAST_CONFIG, params=params), dist, names, spec.rng_seed, 0)
    for name in names:
        assert scaled[name].delay_s.tobytes() == (base[name].delay_s * 0.2154).tobytes()
    rows = _run_trial(spec, FAST_CONFIG, 0)["strategies"]
    assert [row["delay_mean"] for row in rows] == [delay_mean(base[n].delay_s) for n in names]


def test_comparison_numpy_seed_matches_int_seed():
    # a numpy master seed derives the same scene and solver seeds
    want = run_comparison(ScenarioSpec(3, rng_seed=5), 1, FAST_CONFIG)
    got = run_comparison(ScenarioSpec(3, rng_seed=np.int64(5)), 1, FAST_CONFIG)
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def test_comparison_rejects_bad_inputs():
    for trials in (0, 1.5):
        with pytest.raises(DomainError, match="trials"):
            run_comparison(ScenarioSpec(3, rng_seed=0), trials=trials, config=FAST_CONFIG)


def test_comparison_statistic_errors_name_their_trial(monkeypatch):
    # every statistic a row carries is computed inside its trial
    def overflow(d):
        raise DomainError("delay variance overflows the float range")

    monkeypatch.setattr("v2vaoi.metrics.delay_variance", overflow)
    with pytest.raises(SimulationError, match="^trial 0 failed: delay variance overflows"):
        run_comparison(ScenarioSpec(3, rng_seed=0), trials=2, config=FAST_CONFIG)


def test_comparison_ladder_rows_match_separate_solves():
    # one greedy solve per trial serves the budget's row and then each
    # rung's, in the order of greedy.rungs
    spec = ScenarioSpec(4, rng_seed=8)
    config = ComparisonConfig()
    assert config.greedy == GreedyConfig(max_epochs=5000, rungs=(500, 50))
    comp = run_comparison(spec, trials=2, config=config)
    names = [agg["strategy"] for agg in comp["aggregates"]]
    assert names == [
        "default", "greedy_epoch5000", "greedy_epoch500", "greedy_epoch50", "exact"
    ]
    for trial in comp["per_trial"]:
        dist, _ = generate_scene(replace(spec, rng_seed=trial["scene_seed"]))
        problem = AllocationProblem(config.params, dist)
        rows = {s["strategy"]: s for s in trial["strategies"]}
        for epochs in (config.greedy.max_epochs, *config.greedy.rungs):
            want = greedy_pa(problem, GreedyConfig(max_epochs=epochs))
            name = f"greedy_epoch{epochs}"
            assert rows[name]["epochs_used"] == want.epochs_used
            assert rows[name]["min_snr"] == want.objective_min_snr
            assert rows[name]["delay_variance"] == delay_variance(want.delay_s)
            assert rows[name]["delay_mean"] == delay_mean(want.delay_s)
        # the 50-epoch rung is cut short; the full solve reaches the plateau stop
        assert rows["greedy_epoch50"]["epochs_used"] == 50
        assert rows["greedy_epoch5000"]["epochs_used"] < 5000


@pytest.mark.parametrize(
    "ladder", [(0,), (-5,), (2.5,), (True,), (300, 300), (5000, 50, 500, 50)]
)
def test_comparison_config_rejects_bad_ladders(ladder):
    # a comparison's rungs are caught when its GreedyConfig is built, not as
    # a failure inside trial 0, and never folded into fewer rows than rungs
    with pytest.raises(DomainError, match="rungs must be distinct integers"):
        ComparisonConfig(greedy=GreedyConfig(rungs=ladder))
    config = ComparisonConfig(greedy=GreedyConfig(max_epochs=7, rungs=(np.int64(3), 5)))
    assert config.greedy.rungs == (3, 5)


def test_comparison_config_rejects_ladder_above_greedy_budget():
    # the greedy solve runs greedy.max_epochs as given, so a rung at or beyond
    # it could not be served as its own row; the message names the range
    with pytest.raises(DomainError, match=r"in 1\.\.9, got \(10,\)"):
        GreedyConfig(max_epochs=10, rungs=(10,))
    with pytest.raises(DomainError, match=r"in 1\.\.299, got \(30, 301\)"):
        GreedyConfig(max_epochs=300, rungs=(30, 301))
    config = ComparisonConfig(greedy=GreedyConfig(max_epochs=10, rungs=(5,)))
    comp = run_comparison(ScenarioSpec(3, rng_seed=0), trials=1, config=config)
    names = [agg["strategy"] for agg in comp["aggregates"]]
    assert [name for name in names if name.startswith("greedy")] == [
        "greedy_epoch10",
        "greedy_epoch5",
    ]


def test_solved_scene_projects_the_even_split_once(monkeypatch):
    # default finishes the problem's even split, greedy starts from a copy
    # and exact's bisection from the split itself: one projection serves
    # all three, and each result is what a solve on a problem of its own
    # gives
    calls = []
    project = allocator._project_offdiag_rows
    monkeypatch.setattr(
        allocator, "_project_offdiag_rows", lambda *a: calls.append(a) or project(*a)
    )
    dist, _ = generate_scene(ScenarioSpec(13, rng_seed=4))
    solved = solve_scene(FAST_CONFIG, dist, ("default", "greedy", "exact"), 4)
    assert len(calls) == 1
    monkeypatch.undo()
    for name, solver in (
        ("default", default_pa),
        ("greedy", lambda prob: greedy_pa(prob, FAST_CONFIG.greedy)),
        ("exact", exact_pa),
    ):
        alone = solver(AllocationProblem(FAST_CONFIG.params, dist))
        assert solved[name].power.p.tobytes() == alone.power.p.tobytes()
        assert solved[name].epochs_used == alone.epochs_used
