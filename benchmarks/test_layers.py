"""Per-layer timings of the kernels the commands run through, with
pytest-benchmark; outside the tier-1 suite.

    PYTHONPATH=src python -m pytest benchmarks                          # time every layer
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable   # run each once

Every scene is the one `solve --n N --seed 1` solves.  Each benchmark
asserts that it did the work its name says (epochs, generations, output
size), so a run with --benchmark-disable is a test that the harness still
measures what it claims.
"""

import json

import numpy as np
import pytest

from v2vaoi.allocator import (
    AllocationProblem,
    GeneticConfig,
    GreedyConfig,
    _fit_list_row,
    _fit_row_to_budget,
    _project_offdiag_rows,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
)
from v2vaoi.aoi import AoiConfig, aoi_summary, build_aoi_records
from v2vaoi.channel import (
    ChannelParams,
    _snr,
    from_offdiag_rows,
    offdiag_rows,
    offdiag_values,
    path_loss,
)
from v2vaoi.cli import _fmt_matrix, _resolve, build_parser, cmd_solve
from v2vaoi.scenario import ScenarioSpec, generate_scene
from v2vaoi.seeds import derive_seed

PARAMS = ChannelParams()
SIZES = pytest.mark.parametrize("n", [8, 64], ids=["n8", "n64"])


def problem(n: int) -> AllocationProblem:
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=derive_seed(1, 0)))
    return AllocationProblem(PARAMS, dist)


def log_uniform_rows(shape, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(PARAMS.p_min_w), np.log(PARAMS.p_max_w), size=shape))


def greedy_step_rows(n: int) -> np.ndarray:
    """The even split after one greedy step: one link raised by the default
    learn rate, so one row is over budget, as in nearly every epoch."""
    rows = problem(n).even_split.copy()
    rows[0, 0] *= 1.0 + GreedyConfig().learn_rate
    return rows


def test_generate_scene(benchmark):
    # aoi-fleet's scene: 64 vehicles in the default 100 m box
    dist, coords = benchmark(generate_scene, ScenarioSpec(64, rng_seed=derive_seed(1, 0)))
    assert dist.n == 64 and coords.shape == (64, 2)


def solve_fresh(benchmark, solver, n: int, rounds: int):
    """Time solver on a fresh problem each round, its path loss computed in
    setup: a problem caches its even split and its bisection, so a second
    solve on one problem would time little more than _finish."""
    dist = problem(n).dist

    def setup():
        fresh = AllocationProblem(PARAMS, dist)
        fresh.loss
        return (fresh,), {}

    return benchmark.pedantic(solver, setup=setup, rounds=rounds)


def test_default_pa(benchmark):
    # the even split's projection and _finish, which is nearly all of it:
    # the PowerMatrix and feasibility checks, the SNR on the problem's path
    # loss and the delays
    result = solve_fresh(benchmark, default_pa, 64, rounds=500)
    assert result.snr.shape == result.delay_s.shape == (64, 64)


def test_offdiag_rows(benchmark):
    m = log_uniform_rows((64, 64))
    assert benchmark(offdiag_rows, m).shape == (64, 63)


def test_from_offdiag_rows(benchmark):
    rows = log_uniform_rows((64, 63))
    assert benchmark(from_offdiag_rows, rows).shape == (64, 64)


def test_offdiag_values(benchmark):
    m = log_uniform_rows((64, 64))
    assert benchmark(offdiag_values, m).shape == (64 * 63,)


# n = 5 runs greedy's list layout (GREEDY_LIST_MAX_N), where the plateau
# stop ends the solve at epoch 756; n = 8 and 64 run its NumPy rows
@pytest.mark.parametrize("n, epochs", [(5, 756), (8, 1000), (64, 1000)], ids=["n5", "n8", "n64"])
def test_greedy_solve(benchmark, n, epochs):
    prob = problem(n)
    result = benchmark(greedy_pa, prob, GreedyConfig(max_epochs=1000))
    assert result.epochs_used == epochs


def test_greedy_plateau_stop(benchmark):
    # the default config at n = 3 stops by its plateau rule, so this times
    # each epoch's stop-rule step up to the stop (the 1000-epoch solves
    # above never reach it)
    cfg = GreedyConfig()
    result = benchmark(greedy_pa, problem(3), cfg)
    assert result.stop_reason == "plateau" and result.epochs_used < cfg.max_epochs


@SIZES
def test_snr_one_scene(benchmark, n):
    loss = path_loss(PARAMS, problem(n).dist)
    rows = log_uniform_rows((n, n - 1))
    assert benchmark(_snr, loss, rows, PARAMS.noise_w).shape == (n, n - 1)


def test_snr_population(benchmark):
    # the GA's fitness pass: 50 individuals at n = 5
    loss = path_loss(PARAMS, problem(5).dist)
    pop = log_uniform_rows((50, 5, 4))
    assert benchmark(_snr, loss, pop, PARAMS.noise_w).shape == (50, 5, 4)


def assert_fixed_point(rows):
    again = _project_offdiag_rows(rows.copy(), PARAMS.p_min_w, PARAMS.p_max_w)
    assert again.tobytes() == rows.tobytes()


@SIZES
def test_fit_greedy_step(benchmark, n):
    # what a greedy epoch projects: the raised link's row, fitted back to
    # the budget, on a fresh copy each round (its own output is within
    # budget, with nothing to fit)
    rows = greedy_step_rows(n)
    assert np.add.reduce(rows[0]) > PARAMS.p_max_w
    fresh = []

    def setup():
        fresh[:] = [rows[0].copy()]
        return (fresh[0], PARAMS.p_min_w, PARAMS.p_max_w), {}

    benchmark.pedantic(_fit_row_to_budget, setup=setup, rounds=2000)
    projected = _project_offdiag_rows(rows, PARAMS.p_min_w, PARAMS.p_max_w)
    assert fresh[0].tobytes() == projected[0].tobytes()
    assert_fixed_point(fresh[0])


def test_fit_list_greedy_step(benchmark):
    # the same fit in greedy's list layout, at compare's largest n = 5; it
    # returns a new row, so every round fits the same input
    rows = greedy_step_rows(5)
    row = rows[0].tolist()
    fitted = benchmark(_fit_list_row, row, PARAMS.p_min_w, PARAMS.p_max_w)
    projected = _project_offdiag_rows(rows, PARAMS.p_min_w, PARAMS.p_max_w)
    assert fitted is not row and np.array(fitted).tobytes() == projected[0].tobytes()


def ga_population(over: int) -> np.ndarray:
    """A GA population after variation, 50 individuals at n = 5, with the
    first `over` of its over-budget rows kept and the others scaled to half
    the budget."""
    rows = log_uniform_rows((50, 5, 4)).reshape(-1, 4)
    sums = np.clip(rows, PARAMS.p_min_w, PARAMS.p_max_w).sum(axis=-1)
    for i in np.flatnonzero(sums > PARAMS.p_max_w)[over:]:
        rows[i] *= 0.5 * PARAMS.p_max_w / rows[i].sum()
    clamped = np.clip(rows, PARAMS.p_min_w, PARAMS.p_max_w)
    assert np.count_nonzero(clamped.sum(axis=-1) > PARAMS.p_max_w) == over
    return rows.reshape(50, 5, 4)


def project_population(benchmark, rows):
    # each round projects a fresh copy, as its own output would be a fixed
    # point; the over-budget rows are fitted in one _cap_rows_to_budget pass
    def setup():
        return (rows.copy(), PARAMS.p_min_w, PARAMS.p_max_w), {}

    out = benchmark.pedantic(_project_offdiag_rows, setup=setup, rounds=2000)
    assert_fixed_point(out)


def test_project_population(benchmark):
    # as variation leaves it: 9 of its 250 rows are over budget
    project_population(benchmark, ga_population(9))


def test_project_population_one_over(benchmark):
    # one row over budget, the fewest that reach the cap
    project_population(benchmark, ga_population(1))


# compare's largest n, and n = 16, where a generation's draws weigh most
@pytest.mark.parametrize("n", [5, 16], ids=["n5", "n16"])
def test_genetic_50_generations(benchmark, n):
    prob = problem(n)
    cfg = GeneticConfig(max_generations=50, rng_seed=derive_seed(1, 1))
    result = benchmark(genetic_pa, prob, cfg)
    assert result.epochs_used == 50  # no certified or stagnation stop before


def test_exact_solve(benchmark):
    # the bisection and _finish
    result = solve_fresh(benchmark, exact_pa, 64, rounds=100)
    assert result.upper_bound >= result.objective_min_snr and result.epochs_used > 0


# aoi-fleet's one compute delay for every sender, and one per sender
AOI_CONFIGS = {
    "scalar": AoiConfig(compute_delay_s=0.05),
    "per_sender": AoiConfig(compute_delay_s=tuple(np.linspace(0.0, 0.1, 64).tolist())),
}


@pytest.mark.parametrize("compute", list(AOI_CONFIGS))
def test_build_aoi_records(benchmark, compute):
    delay = exact_pa(problem(64)).delay_s
    ages = benchmark(build_aoi_records, delay, AOI_CONFIGS[compute])
    # one flat age per link: perfbench counts records as len() of this array
    assert len(ages) == 64 * 64
    assert ages.dtype == np.float64 and not ages.flags.writeable


def test_aoi_summary(benchmark):
    cfg = AOI_CONFIGS["scalar"]
    ages = build_aoi_records(exact_pa(problem(64)).delay_s, cfg)
    summary = benchmark(aoi_summary, ages, cfg)
    assert summary.max_age_s >= summary.mean_age_s > 0


@pytest.fixture(scope="module")
def solve_records():
    # exact, so that setting up the 64-vehicle records costs a few ms
    args = build_parser().parse_args(["solve", "--strategy", "exact", "--n", "64", "--seed", "1"])
    return cmd_solve(*_resolve(args))


def test_fmt_matrix(benchmark, solve_records):
    text = benchmark(_fmt_matrix, solve_records[1]["snr"], "SNR matrix:")
    assert text.count("\n") == 64


def test_jsonl_emit(benchmark, solve_records):
    def emit():
        return "".join(json.dumps(rec) + "\n" for rec in solve_records)

    assert benchmark(emit).count("\n") == 2
