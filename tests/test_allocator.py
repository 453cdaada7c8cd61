"""Allocation strategies, the constraint projection, and the exact solver."""

import json
import os
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2vaoi import allocator
from v2vaoi.allocator import (
    EXACT_REL_TOL,
    AllocationProblem,
    GA_CERTIFIED_GAP,
    GA_CREEP_SIGMA,
    GA_CROSSOVER_RATE,
    GA_MUTATION_RATE,
    GREEDY_CONVERGENCE_TOL,
    GREEDY_CONVERGENCE_WINDOW,
    GREEDY_LIST_MAX_N,
    GeneticConfig,
    GreedyConfig,
    _cap_rows_to_budget,
    _Progress,
    _finish,
    _fit_list_row,
    _fit_row_to_budget,
    _project_offdiag_rows,
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
    _receivers,
    _snr,
    compute_delay_matrix,
    compute_snr_matrix,
    offdiag_rows,
    offdiag_values,
)
from v2vaoi.errors import DomainError, FeasibilityError
from v2vaoi.scenario import ScenarioSpec, generate_scene, load_distance_matrix
from v2vaoi.seeds import derive_seed

PARAMS = ChannelParams()


def offdiag_mask(n):
    """Boolean mask of the ordered pairs i != j: the reference layout that
    the strided off-diagonal helpers must reproduce."""
    return ~np.eye(n, dtype=bool)


def equilateral(side=20.0, n=3):
    d = np.full((n, n), side)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def triangle_10_30_50():
    # deliberately lopsided instance (a distance matrix, not planar points)
    return DistanceMatrix(
        [[0.0, 10.0, 30.0], [10.0, 0.0, 50.0], [30.0, 50.0, 0.0]]
    )


def _path_loss_reference(params, dist):
    """channel.path_loss as it stood on the full (n, n) matrix, with a unit
    diagonal so that a zero diagonal power divides to a zero gain; kept
    verbatim so the solver references do not run the live kernels."""
    loss = dist.d ** params.alpha
    np.fill_diagonal(loss, 1.0)
    return loss


def _snr_reference(loss, powers, noise_w):
    """channel._snr as it stood on full (n, n) matrices or (m, n, n) stacks,
    kept verbatim so the solver references do not run the live kernels."""
    gain = powers / loss
    incoming = gain.sum(axis=-2, keepdims=True)  # per receiver j: sum over all transmitters
    interference = incoming - gain  # drop the k = i term
    return gain / (interference + noise_w)


def _cap_rows_to_budget_reference(rows, p_min, budget):
    """_cap_rows_to_budget's water-level search as it stood with a -inf
    sentinel column and a take_along_axis gather, the level kept between
    p_min and the row's largest entry, then the rounding guard as a plain
    loop over the rows of a (k, m) array."""
    u = np.sort(rows, axis=-1)[..., ::-1]
    m = rows.shape[-1]
    csum = np.cumsum(u, axis=-1)
    total = csum[..., -1:]
    tail = total - csum  # sum of entries strictly after the k-th largest
    ks = np.arange(1, m + 1, dtype=np.float64)
    level = (budget - tail) / ks
    # smallest k whose level lands at or above the next entry down
    nxt = np.concatenate(
        [u[..., 1:], np.full((*u.shape[:-1], 1), -np.inf)], axis=-1
    )
    first_ok = np.argmax(level >= nxt, axis=-1)
    w = np.take_along_axis(level, first_ok[..., np.newaxis], axis=-1)
    out = np.minimum(rows, np.clip(w, p_min, u[..., :1]))
    for row, src in zip(out, rows):
        level = row.max()
        # lower the level while the pairwise sum is over budget: by the
        # excess shared over the capped entries, at least one float step,
        # never under the floor
        while np.add.reduce(row) > budget and level > p_min:
            step = (np.add.reduce(row) - budget) / np.sum(src >= level)
            level = max(min(level - step, np.nextafter(level, -np.inf)), p_min)
            row[:] = np.minimum(src, level)
    return out


def _project_offdiag_rows_reference(rows, p_min, p_max):
    """allocator._project_offdiag_rows as it stood with np.clip, kept verbatim
    but on the frozen cap."""
    out = np.clip(rows, p_min, p_max)
    sums = out.sum(axis=-1)
    over = sums > p_max
    if over.any():
        scaled = out[over] * (p_max / sums[over])[..., np.newaxis]
        scaled = np.maximum(scaled, p_min)
        out[over] = _cap_rows_to_budget_reference(scaled, p_min, p_max)
    return out


def _project_matrix_reference(p, params):
    """Every off-diagonal row of p through the frozen projection."""
    n = p.shape[0]
    mask = offdiag_mask(n)
    out = np.zeros_like(p)
    rows = p[mask].reshape(n, n - 1)
    out[mask] = _project_offdiag_rows_reference(rows, params.p_min_w, params.p_max_w).reshape(-1)
    return out


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


@pytest.mark.parametrize("n", [7, 13, 20])
def test_problem_refuses_floors_a_rounding_step_over_budget(n):
    # (n - 1) * p_min rounds to exactly 1 W, but n - 1 links at p_min sum
    # to 1 + 2.2e-16 W by the one budget sum, so no row could fit
    params = ChannelParams(p_min_w=float(np.nextafter(1 / (n - 1), 1)), p_max_w=1.0)
    assert (n - 1) * params.p_min_w == 1.0
    with pytest.raises(FeasibilityError, match=r"sum to 1\.0000000000000002 W, over p_max_w 1\.0 W"):
        AllocationProblem(params, equilateral(n=n))


def test_floors_summing_exactly_to_the_budget_solve():
    # 23 links at 1 W sum to exactly 23 W: the problem is accepted, and the
    # only feasible allocation puts every link at the floor, up to what the
    # budget sum's rounding absorbs (the GA keeps links a few float steps up)
    params = ChannelParams(p_min_w=1.0)
    prob = AllocationProblem(params, random_problem(1, 24).dist)
    for result in (
        default_pa(prob),
        greedy_pa(prob, GreedyConfig(max_epochs=50)),
        genetic_pa(prob, GeneticConfig(max_generations=5)),
        exact_pa(prob),
    ):
        assert check_feasible(result.power, params) == (), result.strategy_name
        np.testing.assert_allclose(offdiag_values(result.power.p), 1.0, rtol=1e-14, atol=0)


def test_config_validation():
    with pytest.raises(DomainError):
        GreedyConfig(learn_rate=1.5)
    with pytest.raises(DomainError):
        GreedyConfig(max_epochs=0)
    with pytest.raises(DomainError):
        GeneticConfig(population_size=1)
    # a float count would die in range() or round up silently
    for bad in (2.5, 3.0):
        with pytest.raises(DomainError, match="max_epochs"):
            GreedyConfig(max_epochs=bad)
        for field in ("population_size", "max_generations", "stagnation_limit", "rng_seed"):
            with pytest.raises(DomainError, match=field):
                GeneticConfig(**{field: bad})
    with pytest.raises(DomainError, match="max_epochs"):
        GreedyConfig(max_epochs=True)
    with pytest.raises(DomainError):
        GeneticConfig(rng_seed=-1)
    # numpy integers are integers
    assert GreedyConfig(max_epochs=np.int64(7)).max_epochs == 7
    genetic = GeneticConfig(
        population_size=np.int64(4), max_generations=np.uint16(9),
        stagnation_limit=np.int8(2), rng_seed=np.uint64(2**64 - 1),
    )
    assert genetic.rng_seed == 2**64 - 1


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
    assert result.stop_reason == "budget" and result.epochs_used == 0


# --- check_feasible -----------------------------------------------------------


def test_check_feasible_accepts_default():
    assert check_feasible(default_pa(random_problem(1, 3)).power, PARAMS) == ()


def test_check_feasible_flags_per_link_violation():
    p = np.zeros((2, 2))
    p[0, 1] = PARAMS.p_max_w + 1.0
    p[1, 0] = 1.0
    violations = check_feasible(PowerMatrix(p), PARAMS)
    assert len(violations) == 2  # link cap and row budget both break
    assert any("above per-link maximum" in v for v in violations)


def test_check_feasible_is_exact_at_any_scale():
    # no absolute slack: violations far below a nanowatt are still flagged,
    # and a row whose budget sum is exactly p_max_w passes
    params = ChannelParams(p_min_w=1e-12, p_max_w=1e-10)
    p = [[0.0, 5e-10, 1e-13], [5e-11, 0.0, 5e-11], [5e-11, 5e-11, 0.0]]
    assert check_feasible(PowerMatrix(p), params) == (
        "P[0][2]=1e-13 W below per-link minimum 1e-12 W",
        "P[0][1]=5e-10 W above per-link maximum 1e-10 W",
        "row 0 sum 5.001e-10 W exceeds budget 1e-10 W",
    )


def test_check_feasible_flags_row_budget():
    p = np.full((3, 3), 12.0)
    np.fill_diagonal(p, 0.0)  # row sums 24 > 23, links within bounds
    violations = check_feasible(PowerMatrix(p), PARAMS)
    assert all("exceeds budget" in v for v in violations)
    assert len(violations) == 3


@pytest.mark.parametrize(
    "p, want",
    [
        # one link under the floor, one over the cap, and the cap's row over budget
        (
            [[0.0, 1.0, 2.0], [24.0, 0.0, 0.5], [3.0, 1e-7, 0.0]],
            (
                "P[2][1]=1e-07 W below per-link minimum 1e-06 W",
                "P[1][0]=24 W above per-link maximum 23 W",
                "row 1 sum 24.5 W exceeds budget 23 W",
            ),
        ),
        # two of each kind: every kind lists its entries in row-major order
        (
            [[0.0, 1e-8, 2.0, 1.0], [24.0, 0.0, 0.5, 1.0], [3.0, 1e-7, 0.0, 30.0],
             [1.0, 1.0, 1.0, 0.0]],
            (
                "P[0][1]=1e-08 W below per-link minimum 1e-06 W",
                "P[2][1]=1e-07 W below per-link minimum 1e-06 W",
                "P[1][0]=24 W above per-link maximum 23 W",
                "P[2][3]=30 W above per-link maximum 23 W",
                "row 1 sum 25.5 W exceeds budget 23 W",
                "row 2 sum 33 W exceeds budget 23 W",
            ),
        ),
    ],
    ids=["one_of_each", "row_major"],
)
def test_check_feasible_messages_in_order(p, want):
    # the diagonal's zeros sit under the floor but are not links
    assert check_feasible(PowerMatrix(p), PARAMS) == want


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
    violations = check_feasible(PowerMatrix(out), PARAMS)
    assert violations == (), violations


def test_projection_handles_floor_reclamp():
    # one huge entry forces the rescale to push the small ones under p_min
    params = ChannelParams(p_min_w=1.0, p_max_w=10.0)
    p = np.zeros((4, 4))
    p[0, 1:] = [100.0, 1.0, 1.0]
    p[1, 0] = p[2, 0] = p[3, 0] = 1.0
    out = project_to_feasible(p, params)
    row = out[0, 1:]
    assert np.all(row >= params.p_min_w)
    assert np.add.reduce(row) <= params.p_max_w  # the one budget sum, no slack
    assert row[0] == pytest.approx(8.0)  # large entry absorbs the cut


def test_projection_batch_matches_single():
    rng = np.random.default_rng(1)
    stack = rng.uniform(0, 40, size=(5, 3, 3))
    for k in range(5):
        np.fill_diagonal(stack[k], 0.0)
    batch = project_to_feasible(stack, PARAMS)
    for k in range(5):
        np.testing.assert_array_equal(batch[k], project_to_feasible(stack[k], PARAMS))


def _cap_cases(rng, m, p_min):
    """Rows of m links for the cap and row-fit tests, with budgets to cap
    them at."""
    k = int(rng.integers(1, 9))
    rows = rng.uniform(p_min, 2.0 / m, size=(k, m))
    # ties: some entries copy the row's first entry
    tie = rng.random((k, m)) < 0.3
    rows[tie] = np.broadcast_to(rows[:, :1], (k, m))[tie]
    # floor entries, as the rescale-and-reclamp in the projection leaves them
    rows[rng.random((k, m)) < 0.2] = p_min
    sums = rows.sum(axis=1)
    # budgets from well below every row sum to above every row sum, so
    # some rows are already within budget
    budgets = (
        float(rng.uniform(0.1, 1.0) * sums.min()),
        float(np.median(sums)),
        float(sums.max() * 1.5),
        float(sums[0]),
    )
    return rows, sums, budgets


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 15, 31, 63])
def test_cap_rows_matches_reference_bit_for_bit(m):
    rng = np.random.default_rng(m)
    p_min = 1e-3
    for _ in range(200):
        rows, sums, budgets = _cap_cases(rng, m, p_min)
        for budget in budgets:
            got = _cap_rows_to_budget(rows, p_min, budget)
            want = _cap_rows_to_budget_reference(rows, p_min, budget)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # rows rescaled to the budget and reclamped to the floor, the
        # projection's own input to the cap
        budget = 1.0
        scaled = np.maximum(rows * (budget / sums)[:, np.newaxis], p_min)
        got = _cap_rows_to_budget(scaled, p_min, budget)
        assert got.tobytes() == _cap_rows_to_budget_reference(scaled, p_min, budget).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 31, 63])
def test_fit_row_matches_reference_bit_for_bit(m):
    # one row through the scan against the frozen cap on the same rescaled,
    # reclamped row; m = 1 leaves the scan nothing to iterate.  Rows of at
    # most 7 links, greedy's list layout, go through the list fit too; rows
    # of 8 and 9 links, summed pairwise, pin the 7-link cut from above.
    rng = np.random.default_rng(m)
    p_min = 1e-3
    for _ in range(200):
        rows, totals, budgets = _cap_cases(rng, m, p_min)
        for p_max in (*budgets, 1.0):
            scaled = np.maximum(rows * (p_max / totals)[:, np.newaxis], p_min)
            want = _cap_rows_to_budget_reference(scaled, p_min, p_max)
            for row, total, want_row in zip(rows, totals, want):
                expected = (want_row if total > p_max else row).tobytes()
                got = row.copy()
                _fit_row_to_budget(got, p_min, p_max)
                assert got.tobytes() == expected
                if m <= 7:
                    assert np.array(_fit_list_row(row.tolist(), p_min, p_max)).tobytes() == expected


@pytest.mark.parametrize("m", range(1, 8))
def test_add_reduce_sums_up_to_seven_entries_left_to_right(m):
    # greedy's list layout sums a row of n-1 <= 7 links left to right as
    # np.add.reduce's bits; NumPy's pairwise sum splits from 8 entries on.
    # Should a NumPy release change that order, this fails by name rather
    # than as a shifted record digest.
    rng = np.random.default_rng(m)
    rows = np.exp(rng.uniform(-30.0, 30.0, size=(2000, m)))
    for row in rows:
        total = 0.0
        for x in row.tolist():
            total += x
        assert float(np.add.reduce(row)) == total


# --- greedy -------------------------------------------------------------------


@pytest.mark.parametrize(
    "start, tol, certify_at, objs, want",
    [
        # a gain below tol raises the best but counts as a stall step; a
        # gain of exactly tol (1.875 over 1.25) is a real one
        pytest.param(
            1.0, 0.5, np.inf, [1.25, 1.875, 2.0],
            [(True, 1, "budget"), (True, 0, "budget"), (True, 1, "budget")],
            id="gain-below-tol-stalls",
        ),
        # the plateau stop comes at exactly `window` (3) stall steps
        pytest.param(
            1.0, 0.0, np.inf, [0.5, 1.0, 2.0, 2.0, 1.0, 2.0],
            [(False, 1, "budget"), (False, 2, "budget"), (True, 0, "budget"),
             (False, 1, "budget"), (False, 2, "budget"), (False, 3, "plateau")],
            id="plateau-at-window",
        ),
        # a best at certify_at stops the solve before its first step
        pytest.param(2.0, 0.0, 2.0, [], [], id="certified-at-start"),
        pytest.param(
            1.0, 0.0, 2.0, [1.5, 2.0], [(True, 0, "budget"), (True, 0, "certified")],
            id="certified-after-a-step",
        ),
        # a step that both reaches certify_at and fills the window is certified
        pytest.param(
            1.0, 0.5, 1.2, [1.1, 1.1, 1.2],
            [(True, 1, "budget"), (False, 2, "budget"), (True, 3, "certified")],
            id="certified-over-plateau",
        ),
        # any gain over a zero best is a real one; the relative gain would
        # divide by zero
        pytest.param(
            0.0, 1e-6, np.inf, [0.0, 5e-324, 5e-324],
            [(False, 1, "budget"), (True, 0, "budget"), (False, 1, "budget")],
            id="zero-best",
        ),
    ],
)
def test_progress_stop_rule(start, tol, certify_at, objs, want):
    # want holds (gain, stall, reason) per step; step k reaches objs[k - 1]
    # with the allocation [k], so a gain is a best_at of [k]
    track = _Progress(start, np.zeros(1), 3, tol, certify_at)
    assert track.reason == ("certified" if start >= certify_at else "budget")
    got = []
    for k, obj in enumerate(objs, 1):
        stop = track.step(obj, np.array([float(k)]))
        assert stop == (track.reason != "budget")
        got.append((track.best_at[0] == k, track.stall, track.reason))
    assert got == want
    best = list(accumulate([start, *objs], max))
    assert track.history == best and track.best == best[-1]


def test_progress_keeps_best_allocation_and_rung_snapshots():
    # best_at copies the allocation of each gain and of no other step; a
    # rung the solve runs past snapshots best_at after that step, and a rung
    # at or after the stop gets none
    start = np.zeros(2)
    track = _Progress(1.0, start, 2, 0.0, rungs=(3, 1, 2, 9))
    start[:] = 7.0  # the start was copied
    assert track.best_at.tolist() == [0.0, 0.0]
    moved = np.array([1.0, 2.0])
    assert track.step(2.0, moved) is False
    moved[:] = 5.0  # the gain was copied in place, not bound
    assert track.step(2.0, moved) is False  # a tie is no gain
    assert track.step(1.5, np.array([6.0, 6.0])) is True  # the plateau, at rung 3
    assert track.best_at.tolist() == [1.0, 2.0]
    assert list(track.snapshots) == [3, 1, 2, 9]
    assert track.snapshots[3] is None and track.snapshots[9] is None
    for rung in (1, 2):
        assert track.snapshots[rung].tolist() == [1.0, 2.0]
        assert track.snapshots[rung] is not track.best_at
    assert track.snapshots[1] is not track.snapshots[2]
    # on a list, as greedy's list layout steps it, from a zero best: the
    # first gain is a subnormal one, and best_at follows it
    start = [0.0, 0.0]
    track = _Progress(0.0, start, 3, 1e-6, rungs=(1, 2))
    assert track.best_at is not start
    assert track.step(0.0, [1.0, 1.0]) is False
    assert track.step(5e-324, [2.0, 2.0]) is False
    assert track.best_at == [2.0, 2.0] and track.snapshots == {1: [0.0, 0.0], 2: [2.0, 2.0]}
    assert (track.stall, track.reason) == (0, "budget")


def test_greedy_two_vehicles_hits_cap():
    result = greedy_pa(problem_for(DistanceMatrix([[0.0, 10.0], [10.0, 0.0]])))
    np.testing.assert_array_equal(
        result.power.p, [[0.0, 23.0], [23.0, 0.0]]
    )
    assert result.stop_reason == "plateau"


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


def test_greedy_epoch_budgets_monotone():
    prob = random_problem(6, 4)
    objs = [
        greedy_pa(prob, GreedyConfig(max_epochs=e)).objective_min_snr
        for e in (50, 500, 5000)
    ]
    assert objs[0] <= objs[1] <= objs[2]


def test_greedy_result_is_feasible():
    for seed in range(4):
        result = greedy_pa(random_problem(seed, 5))
        assert check_feasible(result.power, PARAMS) == ()


def test_greedy_objectives_consistent():
    result = greedy_pa(random_problem(9, 3))
    assert result.objective_min_snr == offdiag_values(result.snr).min()
    assert result.objective_max_delay_s == offdiag_values(result.delay_s).max()


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
    """greedy_pa as a plain loop over full matrices, on the frozen kernels:
    it starts from the projected even split, and every epoch reprojects the
    whole matrix, recomputes the path loss and validates a PowerMatrix."""
    cfg = cfg or GreedyConfig()
    params = problem.params
    n = problem.n

    def snr_of(p):
        loss = _path_loss_reference(params, problem.dist)
        return _snr_reference(loss, PowerMatrix(p).p, params.noise_w)

    p = np.full((n, n), params.p_max_w / (n - 1))
    np.fill_diagonal(p, 0.0)
    p = _project_matrix_reference(p, params)
    snr = snr_of(p)
    best_obj = float(offdiag_values(snr).min())
    best_p = p.copy()
    history = []
    stall = 0
    stop_reason = "budget"  # greedy has no certified stop
    epochs_used = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_used = epoch
        (c, d), (a, b) = _extreme_links(snr)
        p[c, d] *= 1.0 + cfg.learn_rate
        p[a, b] *= 1.0 - cfg.learn_rate
        p = _project_matrix_reference(p, params)
        snr = snr_of(p)
        obj = float(offdiag_values(snr).min())
        if obj > best_obj:
            rel_gain = (obj - best_obj) / best_obj
            best_obj = obj
            best_p = p.copy()
            stall = 0 if rel_gain >= GREEDY_CONVERGENCE_TOL else stall + 1
        else:
            stall += 1
        history.append(best_obj)
        if stall >= GREEDY_CONVERGENCE_WINDOW:
            stop_reason = "plateau"
            break
    return _finish(
        problem,
        best_p[offdiag_mask(n)].reshape(n, n - 1),
        epochs_used=epochs_used,
        stop_reason=stop_reason,
        strategy_name="greedy",
        history=tuple(history),
    )


@pytest.mark.parametrize(
    "n, params, cfg",
    [
        *[
            pytest.param(n, PARAMS, GreedyConfig(max_epochs=300), id=f"n{n}")
            for n in (2, 3, 5, 6, 7, 8, 13, 16, 32, 64)
        ],
        pytest.param(3, ChannelParams(p_min_w=5.0), GreedyConfig(max_epochs=300), id="n3-floors"),
        pytest.param(4, ChannelParams(p_min_w=5.0), GreedyConfig(max_epochs=300), id="n4-floors"),
        # rows of 15 and 63 links are summed pairwise, and the budget fit
        # clamps entries at a binding floor back up
        pytest.param(16, ChannelParams(p_min_w=1.0), GreedyConfig(max_epochs=300), id="n16-floors"),
        pytest.param(64, ChannelParams(p_min_w=0.3), GreedyConfig(max_epochs=300), id="n64-floors"),
        pytest.param(
            5, PARAMS, GreedyConfig(learn_rate=0.3, max_epochs=300), id="n5-learn-rate-0.3"
        ),
        # the raised link clamps at p_max and the lowered one at p_min; at
        # n = 3 the fit then caps the raised link at p_max - p_min whether
        # or not it was clamped, so n = 4 is where the clamp decides the bits
        pytest.param(
            3, ChannelParams(p_min_w=10.0), GreedyConfig(learn_rate=0.99, max_epochs=300),
            id="n3-learn-rate-0.99",
        ),
        pytest.param(
            4, PARAMS, GreedyConfig(learn_rate=0.9, max_epochs=300), id="n4-learn-rate-0.9"
        ),
        # lowered links floored nearly every epoch, and fitted rows left a
        # rounding step over budget, so refitted on a later epoch
        pytest.param(
            8, ChannelParams(p_min_w=1.0), GreedyConfig(learn_rate=0.6, max_epochs=300),
            id="n8-learn-rate-0.6-floors",
        ),
        pytest.param(
            32, ChannelParams(p_min_w=0.2, p_max_w=7.3), GreedyConfig(max_epochs=300),
            id="n32-floors-budget-7.3",
        ),
        # 3 * p_min rounds to p_max, so the even split and some fits leave
        # links a rounding step under the floor, to be clamped back up
        pytest.param(
            4, ChannelParams(p_min_w=float(np.nextafter(1 / 3, 1)), p_max_w=1.0),
            GreedyConfig(max_epochs=300), id="n4-floor-at-even-split",
        ),
    ],
)
def test_greedy_matches_reference_bit_for_bit(n, params, cfg):
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=3))
    prob = AllocationProblem(params, dist)
    got = greedy_pa(prob, cfg)
    want = _greedy_reference(prob, cfg)
    assert got.power.p.tobytes() == want.power.p.tobytes()
    assert got.snr.tobytes() == want.snr.tobytes()
    assert got.history == want.history
    assert got.epochs_used == want.epochs_used
    assert got.stop_reason == want.stop_reason
    assert check_feasible(got.power, params) == ()


def _assert_same_solve(got, want):
    assert got.power.p.tobytes() == want.power.p.tobytes()
    assert got.snr.tobytes() == want.snr.tobytes()
    assert got.history == want.history
    assert got.epochs_used == want.epochs_used
    assert got.stop_reason == want.stop_reason


# Symmetric coords scenes whose SNRs tie exactly after the first epoch, so
# that the documented tie-break (the first link in row-major order) decides
# the run: the square's two worst links tie after epoch 1, the rectangle's
# worst and best links after epochs 1 and 4.
TIED_SCENES = {
    "square": "coords\n0 0\n10 0\n10 10\n0 10\n",
    "rectangle": "coords\n0 0\n20 0\n20 10\n0 10\n",
}


@pytest.mark.parametrize("scene", TIED_SCENES)
def test_greedy_tie_break_matches_reference_bit_for_bit(scene, tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(TIED_SCENES[scene])
    prob = AllocationProblem(PARAMS, load_distance_matrix(path))
    cfg = GreedyConfig(max_epochs=300)
    _assert_same_solve(greedy_pa(prob, cfg), _greedy_reference(prob, cfg))


# n = 6 and 7 sit on either side of GREEDY_LIST_MAX_N
@pytest.mark.parametrize("n, seed", [(3, 3), (4, 1), (5, 2), (6, 2), (7, 2)])
def test_greedy_rungs_match_separate_solves(n, seed):
    prob = random_problem(seed, n)
    stop = greedy_pa(prob).epochs_used  # the plateau stop of the full solve
    assert greedy_pa(prob).stop_reason == "plateau" and stop > 20
    ladders = {
        "stops before the smallest rung": (stop + 300, (stop + 1,)),
        "stops between rungs": (stop + 50, (stop // 2, 7)),
        "stops at a rung": (stop + 50, (stop, stop - 1)),
        "stops at the budget": (stop, (stop - 1, 3)),
        "runs to the budget": (stop - 1, (1, 10)),
    }
    for case, (budget, rungs) in ladders.items():
        result = greedy_pa(prob, GreedyConfig(max_epochs=budget, rungs=rungs))
        assert result.stop_reason == ("plateau" if budget >= stop else "budget"), case
        _assert_same_solve(result, greedy_pa(prob, GreedyConfig(max_epochs=budget)))
        assert len(result.rungs) == len(rungs)
        for rung, got in zip(rungs, result.rungs):
            _assert_same_solve(got, greedy_pa(prob, GreedyConfig(max_epochs=rung)))
            assert got.rungs == ()


def _solve_in_layout(prob, cfg, cut):
    """greedy_pa with GREEDY_LIST_MAX_N at cut, and how many times the list
    layout's epoch loop ran."""
    runs = []
    list_epochs = allocator._greedy_list_epochs

    def counted(*args):
        runs.append(1)
        return list_epochs(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocator, "GREEDY_LIST_MAX_N", cut)
        mp.setattr(allocator, "_greedy_list_epochs", counted)
        return greedy_pa(prob, cfg), len(runs)


# 150 derandomized draws and one explicit example, the same on every run,
# about 1 s: each solves one scene in both layouts, of at most 300 epochs.
@settings(max_examples=150, deadline=None, derandomize=True)
@example(n=5, seed=1, p_max=23.0, floor=1.0, learn_rate=0.05, epochs=300, rungs=[50, 7])
@given(
    n=st.sampled_from(range(2, 9)),
    seed=st.integers(0, 2**32 - 1),
    p_max=st.sampled_from([1.0, 7.3, 23.0]),
    floor=st.floats(0.0, 1.0),
    learn_rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    epochs=st.integers(1, 300),
    rungs=st.lists(st.integers(1, 299), max_size=3, unique=True),
)
def test_greedy_layouts_agree_bit_for_bit(n, seed, p_max, floor, learn_rate, epochs, rungs):
    # the list layout, forced up to n = 8 (rows of 7 links, the most whose
    # sum it may take left to right), against the NumPy rows, forced down
    # to n = 2; floor places p_min on a log scale from the largest floor
    # whose n-1 copies fit the budget (at 0) down to 1e-3 W (at 1)
    limit = p_max / (n - 1)
    p_min = min(limit * (1e-3 / limit) ** floor, float(np.nextafter(p_max, 0)))
    while np.add.reduce(np.full(n - 1, p_min)) > p_max:
        p_min = float(np.nextafter(p_min, 0))
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=seed))
    prob = AllocationProblem(ChannelParams(p_min_w=p_min, p_max_w=p_max), dist)
    # the budget lies above every rung
    budget = max([epochs, *(r + 1 for r in rungs)])
    cfg = GreedyConfig(learn_rate=learn_rate, max_epochs=budget, rungs=tuple(rungs))
    lists, list_runs = _solve_in_layout(prob, cfg, 8)
    arrays, array_runs = _solve_in_layout(prob, cfg, 1)
    assert list_runs == 1 and array_runs == 0
    _assert_same_solve(lists, arrays)
    assert len(lists.rungs) == len(arrays.rungs) == len(rungs)
    for got, want in zip(lists.rungs, arrays.rungs):
        _assert_same_solve(got, want)


def test_greedy_layout_follows_scene_size():
    # the shipped cut: lists up to GREEDY_LIST_MAX_N vehicles, rows above
    cfg = GreedyConfig(max_epochs=30)
    for n in (GREEDY_LIST_MAX_N, GREEDY_LIST_MAX_N + 1):
        _, list_runs = _solve_in_layout(random_problem(1, n), cfg, GREEDY_LIST_MAX_N)
        assert list_runs == (n <= GREEDY_LIST_MAX_N)
    assert 2 <= GREEDY_LIST_MAX_N <= 8


def _reference_row_epochs(problem, cfg):
    """allocator._greedy_row_epochs as it stood before it kept its gains:
    every epoch evaluates _snr on the whole state.  Only its _Progress calls
    follow today's tracker, which holds the best links and the rung
    snapshots."""
    params = problem.params
    p_min, p_max, noise_w, loss = params.p_min_w, params.p_max_w, params.noise_w, problem.loss
    m = problem.n - 1
    rows = problem.even_split.copy()
    links = rows.reshape(-1)
    up, down = 1.0 + cfg.learn_rate, 1.0 - cfg.learn_rate
    for epoch in range(cfg.max_epochs + 1):  # epoch 0 evaluates the even split
        if epoch:
            links[worst] *= up
            links[strongest] *= down
            for k in (worst, strongest):  # as the projection clamps: max, then min
                links[k] = min(max(links[k], p_min), p_max)
            _fit_row_to_budget(rows[worst // m], p_min, p_max)
        snr = _snr(loss, rows, noise_w).reshape(-1)
        worst, strongest = int(snr.argmin()), int(snr.argmax())
        if not epoch:
            track = _Progress(snr.item(worst), links, rungs=cfg.rungs)
        elif track.step(snr.item(worst), links):
            break
    return track


# p_min from 1e-6 W to floors that bind: 1 W needs 8 or 15 of the 23 W
# budget at n = 9 and 16, and 0.3 W needs 18.9 W at n = 64
@pytest.mark.parametrize("n, p_min", [
    (9, 1e-6), (9, 0.1), (9, 1.0), (16, 1e-6), (16, 1.0), (64, 1e-6), (64, 0.3),
])
@pytest.mark.parametrize("learn_rate", [0.05, 0.9])
def test_greedy_row_epochs_match_reference_bit_for_bit(n, p_min, learn_rate):
    # the NumPy rows' loop on kept gains against the loop that evaluates
    # every gain each epoch, above the list layout's reach (rows of 8 links
    # and more, fitted on NumPy rows); 3 scenes each, 600 epochs and rungs
    cfg = GreedyConfig(learn_rate=learn_rate, max_epochs=600, rungs=(1, 37, 300))
    for seed in range(3):
        dist, _ = generate_scene(ScenarioSpec(n, rng_seed=derive_seed(seed, n)))
        prob = AllocationProblem(ChannelParams(p_min_w=p_min), dist)
        track = allocator._greedy_row_epochs(prob, cfg)
        want_track = _reference_row_epochs(prob, cfg)
        assert track.best_at.tobytes() == want_track.best_at.tobytes()
        assert np.array(track.history).tobytes() == np.array(want_track.history).tobytes()
        assert track.reason == want_track.reason
        assert track.snapshots.keys() == want_track.snapshots.keys()
        for rung, snapshot in track.snapshots.items():
            want = want_track.snapshots[rung]
            assert (snapshot is None) == (want is None), rung
            if snapshot is not None:
                assert snapshot.tobytes() == want.tobytes(), rung


def test_greedy_rungs_validated():
    # the one rule for rungs, checked at construction: distinct integers
    # below max_epochs, so a solve returns one result per rung and runs no
    # epoch past its budget
    bad_rungs = ((0,), (-5,), (2.5,), (True,), (50, 50), (100,), (101,), (30, 101))
    for bad in bad_rungs:
        with pytest.raises(DomainError, match=r"rungs must be distinct integers in 1\.\.99"):
            GreedyConfig(max_epochs=100, rungs=bad)
    cfg = GreedyConfig(max_epochs=100, rungs=(np.int64(9), 3))
    assert cfg.rungs == (9, 3)
    prob = random_problem(1, 3)
    assert [r.epochs_used for r in greedy_pa(prob, cfg).rungs] == [9, 3]
    assert greedy_pa(prob, GreedyConfig(max_epochs=5)).rungs == ()


def _assert_projection_matches_frozen(rows, p_min, p_max):
    """Project rows, which the call may overwrite, and check the result."""
    want = _project_offdiag_rows_reference(rows.copy(), p_min, p_max)
    got = _project_offdiag_rows(rows, p_min, p_max)
    assert got is rows  # projected in place
    assert got.tobytes() == want.tobytes()
    # every projected row is a fixed point, the fitted ones included
    again = _project_offdiag_rows(got.copy(), p_min, p_max)
    assert again.tobytes() == got.tobytes()


def _rows_with_over_budget(rng, n, count, p_min, p_max):
    """Six rows of n-1 links, exactly count of them over budget after the
    clamp, with tied and floor-bound entries."""
    k, m = 6, n - 1
    rows = rng.uniform(p_min, p_max / m, size=(k, m))
    tie = rng.random((k, m)) < 0.3
    rows[tie] = np.broadcast_to(rows[:, :1], (k, m))[tie]
    rows[rng.random((k, m)) < 0.2] = p_min * rng.choice([0.5, 1.0])
    for i in rng.choice(k, size=count, replace=False):
        if rng.random() < 0.5:
            rows[i, rng.integers(m)] = p_max * rng.uniform(1.0, 2.0)  # clamped to the cap
        else:
            # entries at the floor, which the rescale pushes back under it
            rows[i, rng.random(m) < 0.3] = p_min
            rows[i] *= p_max / rows[i].sum() * rng.uniform(1.01, 3.0)
    clamped = np.clip(rows, p_min, p_max)
    assert np.count_nonzero(clamped.sum(axis=-1) > p_max) == count
    return rows


def test_projection_matches_frozen_and_flags_over_budget_rows():
    rng = np.random.default_rng(11)
    for params in (PARAMS, ChannelParams(p_min_w=5.0)):
        p_min, p_max = params.p_min_w, params.p_max_w
        for n in (2, 3, 4, 8, 64):
            for _ in range(20):
                rows = np.exp(rng.uniform(-16, 4, size=(int(rng.integers(1, 6)), n, n - 1)))
                _assert_projection_matches_frozen(rows, p_min, p_max)
        # none, one, and several rows over budget; a one-link row
        # (n = 2) never exceeds the budget after the clamp, and 5 W floors
        # leave no row within budget beyond n = 5
        for n in (2, 3, 4, 5, 8, 64):
            if (n - 1) * p_min > p_max:
                continue
            for count in (0, 1, 4, 5) if n > 2 else (0,):
                for _ in range(10):
                    rows = _rows_with_over_budget(rng, n, count, p_min, p_max)
                    _assert_projection_matches_frozen(rows.copy(), p_min, p_max)
                    # a stack of scenes, as the GA projects its population
                    _assert_projection_matches_frozen(rows.reshape(2, -1, n - 1), p_min, p_max)
    # degenerate floors: (n-1) * p_min is p_max exactly, or to a rounding
    # step, so fitted rows end at or near the floor
    cases = [(24, 1.0, 23.0)]
    cases += [(n, float(np.nextafter(1 / (n - 1), 1)), 1.0) for n in (3, 4, 7, 13, 24, 64)]
    for n, p_min, p_max in cases:
        for _ in range(20):
            spread = np.exp(rng.uniform(-0.5, 0.5, size=(5, n, n - 1)))
            rows = p_max / (n - 1) * spread * rng.uniform(0.9, 1.5, size=(5, n, 1))
            rows[rng.random(rows.shape) < 0.2] = p_min
            _assert_projection_matches_frozen(rows, p_min, p_max)


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
        assert check_feasible(result.power, PARAMS) == ()


def test_genetic_history_monotone():
    result = genetic_pa(
        random_problem(13, 3),
        GeneticConfig(rng_seed=0, max_generations=300, stagnation_limit=300),
    )
    assert np.all(np.diff(np.array(result.history)) >= 0)


def _genetic_reference(problem, cfg=None):
    """genetic_pa as the plain generation loop: seven draws per generation,
    crossover by boolean-mask swaps, a fresh zeroed power stack per
    fitness call, on the frozen kernels.  It stops as genetic_pa does:
    certified within GA_CERTIFIED_GAP of exact_pa's upper bound, checked
    before the first generation and after each, or by stagnation or
    budget."""
    cfg = cfg or GeneticConfig()
    params = problem.params
    n = problem.n
    n_genes = n * (n - 1)
    pop_size = cfg.population_size
    rng = np.random.default_rng(cfg.rng_seed)
    ln_lo = np.log(params.p_min_w)
    ln_hi = np.log(params.p_max_w)
    mask = offdiag_mask(n)
    loss = _path_loss_reference(params, problem.dist)

    def _genes_to_rows(genes, n):
        return genes.reshape(genes.shape[0], n, n - 1)

    def _rows_to_matrices(rows, n):
        out = np.zeros((rows.shape[0], n, n))
        out[:, mask] = rows.reshape(rows.shape[0], n * (n - 1))
        return out

    def project(genes):
        rows = _project_offdiag_rows_reference(
            _genes_to_rows(genes, n), params.p_min_w, params.p_max_w
        )
        return rows.reshape(genes.shape[0], n_genes)

    def fitness(genes):
        snr = _snr_reference(
            loss, _rows_to_matrices(_genes_to_rows(genes, n), n), params.noise_w
        )
        return snr[:, mask].min(axis=1)

    def random_genes(count):
        return project(np.exp(rng.uniform(ln_lo, ln_hi, size=(count, n_genes))))

    pop = random_genes(pop_size)
    fit = fitness(pop)
    best_idx = int(np.argmax(fit))
    best_fit = float(fit[best_idx])
    best_genes = pop[best_idx].copy()
    history = [best_fit]
    stagnation = 0
    certified = (1 - GA_CERTIFIED_GAP) * exact_pa(problem).upper_bound
    stop_reason = "certified" if best_fit >= certified else "budget"
    generations = 0

    for _ in range(0 if stop_reason == "certified" else cfg.max_generations):
        generations += 1
        # tournament selection, size 3
        entrants = rng.integers(0, pop_size, size=(pop_size, 3))
        winners = entrants[np.arange(pop_size), np.argmax(fit[entrants], axis=1)]
        children = pop[winners].copy()
        # uniform crossover on consecutive pairs
        n_pairs = pop_size // 2
        do_cross = rng.random(n_pairs) < GA_CROSSOVER_RATE
        swap = rng.random((n_pairs, n_genes)) < 0.5
        swap &= do_cross[:, np.newaxis]
        first = children[0 : 2 * n_pairs : 2]
        second = children[1 : 2 * n_pairs : 2]
        tmp = first[swap]
        first[swap] = second[swap]
        second[swap] = tmp
        # mutation: log-uniform reset or multiplicative creep, half and half,
        # drawn only for the mutated genes, in row-major order
        mutate = rng.random((pop_size, n_genes)) < GA_MUTATION_RATE
        k = int(mutate.sum())
        use_reset = rng.random(k) < 0.5
        resets = np.exp(rng.uniform(ln_lo, ln_hi, size=k))
        creeps = children[mutate] * np.exp(rng.normal(0.0, GA_CREEP_SIGMA, size=k))
        children[mutate] = np.where(use_reset, resets, creeps)
        children = project(np.clip(children, params.p_min_w, params.p_max_w))
        children[0] = best_genes  # elitism
        pop = children
        fit = fitness(pop)
        gen_best = int(np.argmax(fit))
        if float(fit[gen_best]) > best_fit:
            best_fit = float(fit[gen_best])
            best_genes = pop[gen_best].copy()
            stagnation = 0
        else:
            stagnation += 1
        history.append(best_fit)
        if best_fit >= certified:
            stop_reason = "certified"
            break
        if stagnation >= cfg.stagnation_limit:
            stop_reason = "plateau"
            break

    return _finish(
        problem,
        best_genes.reshape(n, n - 1),
        epochs_used=generations,
        stop_reason=stop_reason,
        strategy_name="genetic",
        history=tuple(history),
    )


def _short(**kw):
    return GeneticConfig(**{"max_generations": 60, "stagnation_limit": 60, **kw})


@pytest.mark.parametrize(
    "n, params, cfg, stops",
    [
        *[
            pytest.param(n, PARAMS, _short(rng_seed=n), None, id=f"n{n}")
            for n in (2, 3, 5, 8)
        ],
        pytest.param(64, PARAMS, _short(max_generations=15), None, id="n64"),
        *[
            pytest.param(4, PARAMS, _short(population_size=size, rng_seed=size), None, id=f"pop{size}")
            for size in (2, 3, 7)
        ],
        pytest.param(3, ChannelParams(p_min_w=5.0), _short(), None, id="n3-floors"),
        pytest.param(4, ChannelParams(p_min_w=5.0), _short(), None, id="n4-floors"),
        pytest.param(
            3, PARAMS, GeneticConfig(max_generations=5000, stagnation_limit=40), "certified",
            id="certified",
        ),
        # 1 W floors at n = 4: the GA stalls about 10% below the bound
        pytest.param(
            4, ChannelParams(p_min_w=1.0), GeneticConfig(rng_seed=3, stagnation_limit=40),
            "plateau", id="stagnation",
        ),
        pytest.param(
            5, PARAMS, GeneticConfig(rng_seed=9, max_generations=200), "budget", id="budget"
        ),
    ],
)
def test_genetic_matches_reference_bit_for_bit(n, params, cfg, stops):
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=3))
    prob = AllocationProblem(params, dist)
    got = genetic_pa(prob, cfg)
    want = _genetic_reference(prob, cfg)
    assert got.power.p.tobytes() == want.power.p.tobytes()
    assert got.snr.tobytes() == want.snr.tobytes()
    assert got.history == want.history
    assert got.epochs_used == want.epochs_used
    assert got.stop_reason == want.stop_reason
    if stops is None:
        return
    # the case reaches the stop it is named for
    target = (1 - GA_CERTIFIED_GAP) * exact_pa(prob).upper_bound
    assert got.stop_reason == stops
    assert (got.epochs_used < cfg.max_generations) is (stops != "budget")
    assert (got.objective_min_snr >= target) is (stops == "certified")
    if stops == "certified":  # at the first generation that reaches the target
        assert max(got.history[:-1]) < target <= got.history[-1]


class _RecordingRng:
    """A Generator that records the name and the values of every draw."""

    def __init__(self, rng):
        self._rng, self.draws = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            result = method(*args, **kwargs)
            values = kwargs.get("out", result)
            self.draws.append((name, np.array(values, dtype=np.float64).ravel()))
            return result

        return draw


def test_genetic_draws_only_per_hit_values(monkeypatch):
    # the budget case's scene, cut at 50 generations: no certified or
    # plateau stop comes first
    generations = 50
    prob = AllocationProblem(PARAMS, generate_scene(ScenarioSpec(5, rng_seed=3))[0])
    cfg = GeneticConfig(rng_seed=9, max_generations=generations, stagnation_limit=10 * generations)
    plain = genetic_pa(prob, cfg)
    make, recorders = np.random.default_rng, []

    def recording(seed):
        recorders.append(_RecordingRng(make(seed)))
        return recorders[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    got = genetic_pa(prob, cfg)
    assert got.power.p.tobytes() == plain.power.p.tobytes()  # the same stream
    assert got.epochs_used == generations and got.stop_reason == "budget"
    # each generation starts with its tournament's integers; its first
    # uniforms are the variation block, whose last P * G are the mutate coins
    n_genes, pop_size = prob.n * (prob.n - 1), cfg.population_size
    coins_at = pop_size // 2 * (1 + n_genes)
    block = coins_at + pop_size * n_genes
    (rng,) = recorders
    per_generation = []
    for name, values in rng.draws:
        if name == "integers":
            per_generation.append([])
        elif per_generation:
            per_generation[-1].append((name, values))
    assert len(per_generation) == generations
    total_hits = 0
    for draws in per_generation:
        uniforms = np.concatenate([v for name, v in draws if name == "random"])
        normals = sum(v.size for name, v in draws if name == "standard_normal")
        hits = np.count_nonzero(uniforms[coins_at:block] < GA_MUTATION_RATE)
        assert normals == hits  # one creep step per mutated gene
        assert uniforms.size - block == 2 * hits  # its choice and its reset value
        total_hits += hits
    assert 0 < total_hits < generations * pop_size * n_genes


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
    snr = _snr_reference(
        _path_loss_reference(params, prob.dist), project_to_feasible(raw, params), params.noise_w
    )
    return float(snr[:, offdiag_mask(n)].min(axis=1).max())


def test_exact_two_vehicles_at_cap():
    prob = problem_for(DistanceMatrix([[0.0, 10.0], [10.0, 0.0]]))
    result = exact_pa(prob)
    np.testing.assert_array_equal(result.power.p, [[0.0, 23.0], [23.0, 0.0]])
    assert result.strategy_name == "exact" and result.stop_reason == "certified"


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
    assert check_feasible(result.power, PARAMS) == ()


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
    assert check_feasible(result.power, PARAMS) == ()
    assert default_pa(prob).objective_min_snr <= result.objective_min_snr
    assert result.objective_min_snr <= 1.0 / 62 * (1 + 1e-9)


def test_exact_and_genetic_repeat_on_one_problem():
    # exact_pa twice and genetic_pa (its certified stop) on one problem give
    # what each gives on a fresh problem: no solve changes what the next reads
    cfg = GeneticConfig(max_generations=20)
    prob = random_problem(3, 5)
    genetic, first, again = genetic_pa(prob, cfg), exact_pa(prob), exact_pa(prob)
    alone = exact_pa(random_problem(3, 5))
    for result in (first, again):
        assert result.power.p.tobytes() == alone.power.p.tobytes()
        assert (result.epochs_used, result.upper_bound) == (alone.epochs_used, alone.upper_bound)
    assert genetic.history == genetic_pa(random_problem(3, 5), cfg).history


def _reference_row_test(problem):
    """exact_pa's row test as its bisection ran it before the prediction:
    gamma -> the minimal powers for target gamma if every row fits the
    budget by np.add.reduce, else None."""
    params, n, loss = problem.params, problem.n, problem.loss
    recv = _receivers(1, n).reshape(n, n - 1)
    into = (params.p_min_w / loss).take(recv.argsort(axis=None)).reshape(n, n - 1)
    cols = -np.sort(-into, axis=1)
    prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(cols[:, :-1], axis=1)], axis=1)
    unfloored = np.arange(n - 1, 0, -1)

    def row_test(gamma):
        beta = gamma / (1.0 + gamma)
        c = (beta * (prefix + params.noise_w) / (1.0 - unfloored * beta)).max(axis=1)
        p = np.maximum(c.take(recv) * loss, params.p_min_w)
        return p if (np.add.reduce(p, axis=1) <= params.p_max_w).all() else None

    return row_test


def _reference_bisection(problem):
    """exact_pa's solve before the prediction: bisection on the target SNR
    from the even split's objective to 1/(n-2).  Returns the min SNR it
    reaches and its step count (n >= 3)."""
    n, noise_w = problem.n, problem.params.noise_w
    best = problem.even_split
    lo, hi, steps = float(_snr(problem.loss, best, noise_w).min()), 1.0 / (n - 2), 0
    row_test = _reference_row_test(problem)
    with np.errstate(over="ignore"):
        while hi - lo > EXACT_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            steps += 1
            p = row_test(mid)
            if p is None:
                hi = mid
            else:
                lo, best = mid, p
    return float(_snr(problem.loss, best, noise_w).min()), steps


def _exact_against_reference(n, p_min, seed):
    """exact_pa and _reference_bisection on one scene, the result checked
    for the certificate a bisection gives: its upper bound, a Python float,
    fails the row test, and its min SNR lies within EXACT_REL_TOL below it
    and of the reference's."""
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=derive_seed(seed, 0)))
    problem = AllocationProblem(ChannelParams(p_min_w=p_min), dist)
    result = exact_pa(problem)
    want, steps = _reference_bisection(problem)
    hi, got = result.upper_bound, result.objective_min_snr
    assert type(hi) is float and _reference_row_test(problem)(hi) is None
    assert 0.0 < hi - got <= EXACT_REL_TOL * hi
    assert abs(got - want) <= EXACT_REL_TOL * want
    return result.epochs_used, steps


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 64])
def test_exact_certifies_its_prediction_in_two_row_tests(n):
    # no floor binds at the default p_min_w: the SIR-balanced prediction's
    # bracket passes at its lower end and fails at its upper end
    for seed in range(3):
        row_tests, _ = _exact_against_reference(n, PARAMS.p_min_w, seed)
        assert row_tests == 2


@pytest.mark.parametrize("n, p_min", [(8, 0.1), (16, 0.3)])
def test_exact_falls_back_to_bisection_where_floors_bind(n, p_min):
    # binding floors lower the optimum below the prediction, whose lower
    # end then fails: bisection goes on below it, at most two row tests
    # more than the reference takes
    for seed in range(3):
        row_tests, steps = _exact_against_reference(n, p_min, seed)
        assert 2 < row_tests <= steps + 2


@pytest.mark.parametrize("n", [3, 5])
def test_exact_skips_the_prediction_where_the_even_split_is_optimal(n):
    # on the equilateral scene the even split is already SIR-balanced and
    # reaches the prediction's lower end, so no predicted probe runs: the
    # search bisects up from the even split, and no higher target passes
    problem = problem_for(equilateral(n=n))
    result = exact_pa(problem)
    hi, got = result.upper_bound, result.objective_min_snr
    assert result.epochs_used == 5
    assert got == default_pa(problem).objective_min_snr
    assert _reference_row_test(problem)(hi) is None
    assert 0.0 < hi - got <= EXACT_REL_TOL * hi


_SUBNORMAL_BISECTION = """
import json
from v2vaoi.allocator import AllocationProblem, _bisect_max_min
from v2vaoi.channel import ChannelParams
from v2vaoi.scenario import ScenarioSpec, generate_scene
dist, _ = generate_scene(ScenarioSpec(5, rng_seed=11))
best, steps, hi = _bisect_max_min(AllocationProblem(ChannelParams(noise_w=1e308), dist))
print(json.dumps([steps, hi, best.sum(axis=1).max()]))
"""


def test_bisection_ends_on_a_subnormal_bracket():
    # at noise 1e308 the optimum's min SNR is subnormal, where
    # EXACT_REL_TOL * hi underflows to 0 and the bracket ends at float
    # resolution instead; a subprocess bounds the test should the loop not end
    src = str(Path(allocator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SUBNORMAL_BISECTION],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    steps, hi, top_row = json.loads(proc.stdout)
    # the prediction takes at most two row tests; each further step halves
    # a bracket that starts about 2**32.7 smallest subnormals (2**-1074) wide,
    # between the even split's 5.6e-314 and the predicted 9.0e-314, and
    # the halving stops at one such step
    assert 30 < steps <= 2 + 36
    assert 0.0 < hi < 1e-300
    assert top_row <= PARAMS.p_max_w


# Yates (1995) certificate: the gains g_ij = P_ij / D_ij**alpha of any
# allocation whose every link reaches SNR gamma satisfy
# g_ij >= max(f_ij, gamma * (sum_{k != i} g_kj + N)), with f_ij the gains at
# the per-link floor.  That map is monotone, so iterating it from f gives
# lower bounds on those gains, and the first iterate whose power rows exceed
# p_max_w proves gamma unreachable.  It shares no code with exact_pa.
YATES_TARGET_REL = 1e-6  # exact * (1 + this) must be proved unreachable
YATES_MAX_STEPS = 1000


def _yates_proves_unreachable(params, dist, gamma):
    n = dist.n
    mask = offdiag_mask(n)
    atten = dist.d**params.alpha + np.eye(n)  # power per unit of received gain
    others = 1.0 - np.eye(n)  # row i sums every transmitter k != i, no subtraction
    floors = params.p_min_w / atten * mask
    gains = floors
    for _ in range(YATES_MAX_STEPS):
        gains = np.maximum(floors, gamma * (others @ gains + params.noise_w)) * mask
        if np.any((gains * atten).sum(axis=1) > params.p_max_w):
            return True
    return False


@pytest.mark.parametrize("n", [3, 4, 8, 16, 64])
def test_exact_certified_by_yates(n):
    # 1 W floors do not fit 63 links into a 23 W budget at n = 64
    for p_min in (1e-6, 1e-3, 1e-2, 0.1, 0.3, 1.0)[: 5 if n == 64 else 6]:
        params = ChannelParams(p_min_w=p_min)
        dist, _ = generate_scene(ScenarioSpec(n, rng_seed=n))
        result = exact_pa(AllocationProblem(params, dist))
        exact = result.objective_min_snr
        target = exact * (1 + YATES_TARGET_REL)
        assert check_feasible(result.power, params) == ()
        assert exact <= result.upper_bound <= target
        assert target >= 1.0 / (n - 2) or _yates_proves_unreachable(params, dist, target), (
            f"n={n} p_min={p_min}: exact * (1 + {YATES_TARGET_REL}) not proved unreachable"
        )
        # the oracle is sound: it proves nothing against a target exact reaches
        assert not _yates_proves_unreachable(params, dist, exact * (1 - YATES_TARGET_REL))


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
                violations = check_feasible(result.power, PARAMS)
                assert violations == (), violations


def _assert_fixed_point(result, params):
    rows = offdiag_rows(result.power.p)
    again = _project_offdiag_rows(rows.copy(), params.p_min_w, params.p_max_w)
    assert again.tobytes() == rows.tobytes(), result.strategy_name


@pytest.mark.parametrize("p_min", [PARAMS.p_min_w, 0.3], ids=["default-floor", "floor-0.3"])
def test_solver_outputs_are_projection_fixed_points(p_min):
    # every solver's output is within the per-link bounds and within budget
    # by the one row sum, so projecting it again must not move a bit; exact
    # floors its minimal powers at p_min_w itself
    params = ChannelParams(p_min_w=p_min)
    for n in range(3, 65):
        dist, _ = generate_scene(ScenarioSpec(n, rng_seed=derive_seed(0, 0)))
        prob = AllocationProblem(params, dist)
        _assert_fixed_point(default_pa(prob), params)
        _assert_fixed_point(exact_pa(prob), params)
    for n in (3, 4, 5, 8, 13, 16, 24, 32, 64):
        for seed in range(3):
            dist, _ = generate_scene(ScenarioSpec(n, rng_seed=derive_seed(seed, 0)))
            prob = AllocationProblem(params, dist)
            _assert_fixed_point(greedy_pa(prob, GreedyConfig(max_epochs=1000)), params)
            cfg = GeneticConfig(max_generations=5, rng_seed=seed)
            _assert_fixed_point(genetic_pa(prob, cfg), params)
