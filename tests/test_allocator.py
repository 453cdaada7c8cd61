"""Allocation strategies, the constraint projection, and the exact solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vaoi.allocator import (
    AllocationProblem,
    FEASIBILITY_SLACK_W,
    GeneticConfig,
    GreedyConfig,
    _finish,
    _uniform_power,
    check_feasible,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
    project_to_feasible,
)
from v2vaoi.channel import (
    ChannelParams,
    DistanceMatrix,
    PowerMatrix,
    compute_delay_matrix,
    compute_snr_batch,
    compute_snr_matrix,
    offdiag_mask,
    offdiag_values,
)
from v2vaoi.errors import DomainError, FeasibilityError
from v2vaoi.scenario import ScenarioSpec, generate_scene

PARAMS = ChannelParams()


def equilateral(side=20.0, n=3):
    d = np.full((n, n), side)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def triangle_10_30_50():
    # deliberately lopsided instance (a distance matrix, not planar points)
    return DistanceMatrix(
        [[0.0, 10.0, 30.0], [10.0, 0.0, 50.0], [30.0, 50.0, 0.0]]
    )


def problem_for(dist):
    return AllocationProblem(PARAMS, dist)


def random_problem(seed, n):
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=seed))
    return problem_for(dist)


# --- problem and configs ----------------------------------------------------


def test_infeasible_problem_rejected():
    params = ChannelParams(p_min_w=10.0, p_max_w=23.0)
    with pytest.raises(FeasibilityError):
        AllocationProblem(params, equilateral(n=4))  # 3 * 10 > 23


def test_config_validation():
    with pytest.raises(DomainError):
        GreedyConfig(learn_rate=1.5)
    with pytest.raises(DomainError):
        GreedyConfig(max_epochs=0)
    with pytest.raises(DomainError):
        GeneticConfig(population_size=1)
    with pytest.raises(DomainError):
        GeneticConfig(mutation_rate=1.5)


# --- default_pa --------------------------------------------------------------


@pytest.mark.parametrize(
    "n,share", [(2, 23.0), (3, 11.5), (5, 5.75)]
)
def test_default_even_split(n, share):
    result = default_pa(random_problem(n, n))
    p = result.power.p
    assert np.all(p[offdiag_mask(n)] == share)
    np.testing.assert_allclose(p.sum(axis=1), PARAMS.p_max_w, rtol=0, atol=1e-12)
    assert result.strategy_name == "default"
    assert result.converged and result.epochs_used == 0


# --- check_feasible -----------------------------------------------------------


def test_check_feasible_accepts_default():
    report = check_feasible(default_pa(random_problem(1, 3)).power, PARAMS)
    assert report.ok and report.violations == ()
    assert bool(report)


def test_check_feasible_flags_per_link_violation():
    p = np.zeros((2, 2))
    p[0, 1] = PARAMS.p_max_w + 1.0
    p[1, 0] = 1.0
    report = check_feasible(PowerMatrix(p), PARAMS)
    assert not report.ok
    assert len(report.violations) == 2  # link cap and row budget both break
    assert any("above per-link maximum" in v for v in report.violations)


def test_check_feasible_flags_row_budget():
    p = np.full((3, 3), 12.0)
    np.fill_diagonal(p, 0.0)  # row sums 24 > 23, links within bounds
    report = check_feasible(PowerMatrix(p), PARAMS)
    assert not report.ok
    assert all("exceeds budget" in v for v in report.violations)
    assert len(report.violations) == 3


# --- projection ---------------------------------------------------------------


def test_projection_identity_on_feasible():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(2, 6)
        p = rng.uniform(PARAMS.p_min_w, PARAMS.p_max_w / (n - 1), size=(n, n))
        np.fill_diagonal(p, 0.0)
        out = project_to_feasible(p, PARAMS)
        np.testing.assert_array_equal(out, p)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(
        st.floats(min_value=1e-9, max_value=1e3), min_size=12, max_size=12
    )
)
def test_projection_always_feasible(raw):
    p = np.zeros((4, 4))
    p[offdiag_mask(4)] = raw
    out = project_to_feasible(p, PARAMS)
    report = check_feasible(PowerMatrix(out), PARAMS)
    assert report.ok, report.violations


def test_projection_handles_floor_reclamp():
    # one huge entry forces the rescale to push the small ones under p_min
    params = ChannelParams(p_min_w=1.0, p_max_w=10.0)
    p = np.zeros((4, 4))
    p[0, 1:] = [100.0, 1.0, 1.0]
    p[1, 0] = p[2, 0] = p[3, 0] = 1.0
    out = project_to_feasible(p, params)
    row = out[0, 1:]
    assert np.all(row >= params.p_min_w - 1e-15)
    assert row.sum() <= params.p_max_w + FEASIBILITY_SLACK_W
    assert row[0] == pytest.approx(8.0)  # large entry absorbs the cut


def test_projection_batch_matches_single():
    rng = np.random.default_rng(1)
    stack = rng.uniform(0, 40, size=(5, 3, 3))
    for k in range(5):
        np.fill_diagonal(stack[k], 0.0)
    batch = project_to_feasible(stack, PARAMS)
    for k in range(5):
        np.testing.assert_array_equal(batch[k], project_to_feasible(stack[k], PARAMS))


# --- greedy -------------------------------------------------------------------


def test_greedy_two_vehicles_hits_cap():
    result = greedy_pa(problem_for(DistanceMatrix([[0.0, 10.0], [10.0, 0.0]])))
    np.testing.assert_array_equal(
        result.power.p, [[0.0, 23.0], [23.0, 0.0]]
    )
    assert result.converged


def test_greedy_equilateral_matches_uniform():
    prob = problem_for(equilateral())
    uniform_obj = default_pa(prob).objective_min_snr
    result = greedy_pa(prob)
    assert result.objective_min_snr >= uniform_obj  # starts there, keeps best
    assert result.objective_min_snr == pytest.approx(uniform_obj, rel=0.01)


def test_greedy_within_5pct_of_exact_on_lopsided_triangle():
    prob = problem_for(triangle_10_30_50())
    exact = exact_pa(prob)
    result = greedy_pa(prob)
    assert result.objective_min_snr >= 0.95 * exact.objective_min_snr


def test_greedy_history_monotone_and_deterministic():
    prob = random_problem(5, 4)
    a = greedy_pa(prob)
    b = greedy_pa(prob)
    np.testing.assert_array_equal(a.power.p, b.power.p)
    hist = np.array(a.history)
    assert np.all(np.diff(hist) >= 0)
    assert a.objective_min_snr == hist[-1]


def test_greedy_epoch_ladder_monotone():
    prob = random_problem(6, 4)
    objs = [
        greedy_pa(prob, GreedyConfig(max_epochs=e)).objective_min_snr
        for e in (50, 500, 5000)
    ]
    assert objs[0] <= objs[1] <= objs[2]


def test_greedy_result_is_feasible():
    for seed in range(4):
        result = greedy_pa(random_problem(seed, 5))
        assert check_feasible(result.power, PARAMS).ok


def test_greedy_objectives_consistent():
    result = greedy_pa(random_problem(9, 3))
    assert result.objective_min_snr == offdiag_values(result.metrics.snr).min()
    assert result.objective_max_delay_s == offdiag_values(result.metrics.delay_s).max()


def _extreme_links(snr):
    """Worst and best off-diagonal links, ties broken lexicographically."""
    n = snr.shape[0]
    lo = snr.copy()
    np.fill_diagonal(lo, np.inf)
    c, d = divmod(int(np.argmin(lo)), n)
    hi = snr.copy()
    np.fill_diagonal(hi, -np.inf)
    a, b = divmod(int(np.argmax(hi)), n)
    return (c, d), (a, b)


def _greedy_reference(problem, cfg=None):
    """greedy_pa as a plain loop: every epoch reprojects the whole matrix,
    recomputes the path loss and validates a PowerMatrix."""
    cfg = cfg or GreedyConfig()
    params = problem.params
    p = _uniform_power(problem)
    snr = compute_snr_matrix(params, problem.dist, PowerMatrix(p))
    best_obj = float(offdiag_values(snr).min())
    best_p = p.copy()
    history = []
    stall = 0
    converged = False
    epochs_used = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_used = epoch
        (c, d), (a, b) = _extreme_links(snr)
        p[c, d] *= 1.0 + cfg.learn_rate
        p[a, b] *= 1.0 - cfg.learn_rate
        p = project_to_feasible(p, params)
        snr = compute_snr_matrix(params, problem.dist, PowerMatrix(p))
        obj = float(offdiag_values(snr).min())
        if obj > best_obj:
            rel_gain = (obj - best_obj) / best_obj
            best_obj = obj
            best_p = p.copy()
            stall = 0 if rel_gain >= cfg.convergence_tol else stall + 1
        else:
            stall += 1
        history.append(best_obj)
        if stall >= cfg.convergence_window:
            converged = True
            break
    return _finish(
        problem,
        best_p,
        epochs_used=epochs_used,
        converged=converged,
        strategy_name="greedy",
        history=tuple(history),
    )


@pytest.mark.parametrize(
    "n, params, cfg",
    [
        *[
            pytest.param(n, PARAMS, GreedyConfig(max_epochs=300), id=f"n{n}")
            for n in (2, 3, 5, 8, 13, 16, 64)
        ],
        pytest.param(3, ChannelParams(p_min_w=5.0), GreedyConfig(max_epochs=300), id="n3-floors"),
        pytest.param(4, ChannelParams(p_min_w=5.0), GreedyConfig(max_epochs=300), id="n4-floors"),
        pytest.param(
            5, PARAMS, GreedyConfig(learn_rate=0.3, max_epochs=300), id="n5-learn-rate-0.3"
        ),
    ],
)
def test_greedy_matches_reference_bit_for_bit(n, params, cfg):
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=3))
    prob = AllocationProblem(params, dist)
    got = greedy_pa(prob, cfg)
    want = _greedy_reference(prob, cfg)
    assert got.power.p.tobytes() == want.power.p.tobytes()
    assert got.metrics.snr.tobytes() == want.metrics.snr.tobytes()
    assert got.history == want.history
    assert got.epochs_used == want.epochs_used
    assert got.converged == want.converged


# --- genetic ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_genetic_two_vehicles_near_optimal(seed):
    prob = problem_for(DistanceMatrix([[0.0, 10.0], [10.0, 0.0]]))
    optimum = default_pa(prob).objective_min_snr  # both links at the cap
    result = genetic_pa(prob, GeneticConfig(rng_seed=seed))
    assert result.objective_min_snr >= 0.99 * optimum


def test_genetic_tracks_greedy_on_lopsided_triangle():
    prob = problem_for(triangle_10_30_50())
    greedy_obj = greedy_pa(prob).objective_min_snr
    genetic_obj = genetic_pa(prob, GeneticConfig(rng_seed=3)).objective_min_snr
    assert genetic_obj >= 0.95 * greedy_obj


def test_genetic_seed_determinism():
    prob = random_problem(12, 3)
    cfg = GeneticConfig(rng_seed=77, max_generations=400, stagnation_limit=100)
    a = genetic_pa(prob, cfg)
    b = genetic_pa(prob, cfg)
    np.testing.assert_array_equal(a.power.p, b.power.p)
    assert a.objective_min_snr == b.objective_min_snr
    assert a.history == b.history


def test_genetic_different_seeds_differ():
    prob = random_problem(12, 4)
    a = genetic_pa(prob, GeneticConfig(rng_seed=1, max_generations=50, stagnation_limit=50))
    b = genetic_pa(prob, GeneticConfig(rng_seed=2, max_generations=50, stagnation_limit=50))
    assert not np.array_equal(a.power.p, b.power.p)


def test_genetic_result_is_feasible():
    cfg = GeneticConfig(rng_seed=5, max_generations=120, stagnation_limit=120)
    for seed in range(3):
        result = genetic_pa(random_problem(seed, 4), cfg)
        assert check_feasible(result.power, PARAMS).ok


def test_genetic_history_monotone():
    result = genetic_pa(
        random_problem(13, 3),
        GeneticConfig(rng_seed=0, max_generations=300, stagnation_limit=300),
    )
    assert np.all(np.diff(np.array(result.history)) >= 0)


# --- exact ---------------------------------------------------------------------


def best_random_objective(prob, count, seed):
    """Best min-SNR over projected random allocations, log-uniform per link."""
    params = prob.params
    rng = np.random.default_rng(seed)
    n = prob.n
    raw = np.exp(
        rng.uniform(np.log(params.p_min_w), np.log(params.p_max_w), size=(count, n, n))
    )
    raw[:, np.arange(n), np.arange(n)] = 0.0
    snr = compute_snr_batch(params, prob.dist, project_to_feasible(raw, params))
    return float(snr[:, offdiag_mask(n)].min(axis=1).max())


def test_exact_two_vehicles_at_cap():
    prob = problem_for(DistanceMatrix([[0.0, 10.0], [10.0, 0.0]]))
    result = exact_pa(prob)
    np.testing.assert_array_equal(result.power.p, [[0.0, 23.0], [23.0, 0.0]])
    assert result.strategy_name == "exact" and result.converged


def test_exact_matches_uniform_on_equilateral():
    prob = problem_for(equilateral())
    exact = exact_pa(prob)
    assert exact.objective_min_snr == pytest.approx(
        default_pa(prob).objective_min_snr, rel=1e-12
    )


def test_exact_objective_matches_channel_recompute():
    prob = problem_for(triangle_10_30_50())
    result = exact_pa(prob)
    snr = compute_snr_matrix(PARAMS, prob.dist, result.power)
    assert result.objective_min_snr == pytest.approx(
        offdiag_values(snr).min(), rel=1e-12
    )
    assert check_feasible(result.power, PARAMS).ok


def test_exact_dominates_heuristics_and_random_search():
    # no allocation beats the optimum, and none reaches 1/(n-2); the
    # bisection stops 1e-12 (relative) short of its upper end
    for params in (PARAMS, ChannelParams(p_min_w=5.0)):
        for n in (3, 4, 5):
            for seed in range(2):
                dist, _ = generate_scene(ScenarioSpec(n, rng_seed=100 * n + seed))
                prob = AllocationProblem(params, dist)
                exact = exact_pa(prob).objective_min_snr
                for heuristic in (
                    default_pa(prob),
                    greedy_pa(prob),
                    genetic_pa(prob, GeneticConfig(rng_seed=seed)),
                ):
                    assert exact >= heuristic.objective_min_snr * (1 - 1e-12)
                assert exact >= best_random_objective(prob, 20_000, seed)
                assert exact <= 1.0 / (n - 2) * (1 + 1e-9)


def test_exact_at_max_scale():
    prob = random_problem(1, 64)
    result = exact_pa(prob)
    assert check_feasible(result.power, PARAMS).ok
    assert default_pa(prob).objective_min_snr <= result.objective_min_snr
    assert result.objective_min_snr <= 1.0 / 62 * (1 + 1e-9)


# --- cross-strategy properties ------------------------------------------------


def test_objective_equivalence_min_snr_vs_max_delay():
    # higher min-SNR must mean lower max-delay, for any allocation pair
    prob = random_problem(21, 3)
    rng = np.random.default_rng(21)
    allocations = []
    for _ in range(8):
        raw = rng.uniform(PARAMS.p_min_w, PARAMS.p_max_w, size=(3, 3))
        np.fill_diagonal(raw, 0.0)
        allocations.append(PowerMatrix(project_to_feasible(raw, PARAMS)))
    for a in allocations:
        for b in allocations:
            snr_a = compute_snr_matrix(PARAMS, prob.dist, a)
            snr_b = compute_snr_matrix(PARAMS, prob.dist, b)
            min_a, min_b = offdiag_values(snr_a).min(), offdiag_values(snr_b).min()
            if min_a == min_b:
                continue
            delay_a = offdiag_values(compute_delay_matrix(PARAMS, snr_a)).max()
            delay_b = offdiag_values(compute_delay_matrix(PARAMS, snr_b)).max()
            assert (min_a > min_b) == (delay_a < delay_b)


def test_all_strategies_feasible_on_random_instances():
    genetic_cfg = GeneticConfig(rng_seed=0, max_generations=40, stagnation_limit=40)
    greedy_cfg = GreedyConfig(max_epochs=60)
    for seed in range(6):
        for n in (2, 3, 5):
            prob = random_problem(1000 + seed, n)
            for result in (
                default_pa(prob),
                greedy_pa(prob, greedy_cfg),
                genetic_pa(prob, genetic_cfg),
            ):
                report = check_feasible(result.power, PARAMS)
                assert report.ok, report.violations
