"""Evaluation statistics for comparing allocation strategies.

All aggregates run over ordered off-diagonal pairs only: the channel is
directional (interference lands at the receiver), so delays are directional
too.  Variance is the population variance, recorded in the output metadata.
"""

from dataclasses import dataclass, replace

import numpy as np

from .allocator import (
    AllocationProblem,
    GeneticConfig,
    GreedyConfig,
    default_pa,
    exact_pa,
    genetic_pa,
    greedy_pa,
)
from .channel import ChannelParams, DistanceMatrix, offdiag_values
from .errors import DimensionMismatchError, DomainError, SimulationError
from .errors import check_finite, is_integer, variance
from .scenario import ScenarioSpec, generate_scene
from .seeds import derive_seed

VARIANCE_CONVENTION = "population variance over ordered off-diagonal pairs"

# compare's reference row: the certified max-min optimum
REFERENCE_STRATEGY = "exact"

# the per-trial row columns that each aggregate averages, in aggregate order
AVERAGED_COLUMNS = ("rmse_vs_reference", "gap_vs_exact", "delay_variance", "delay_mean")


def delay_rmse(a: np.ndarray, b: np.ndarray) -> float:
    """Root-mean-square difference between two delay matrices, in seconds."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = offdiag_values(a) - offdiag_values(b)
    with np.errstate(over="ignore"):
        return check_finite("delay RMSE", np.sqrt(np.mean(diff**2)))


def delay_variance(d: np.ndarray) -> float:
    """Population variance of the off-diagonal delays, in seconds squared."""
    return check_finite("delay variance", variance(offdiag_values(d)))


def delay_mean(d: np.ndarray) -> float:
    """Arithmetic mean of the off-diagonal delays, in seconds."""
    with np.errstate(over="ignore"):
        return check_finite("delay mean", np.mean(offdiag_values(d)))


def optimality_gap(min_snr: float, optimum: float) -> float:
    """How far a min SNR falls short of the exact optimum, as a share of it."""
    return max(0.0, (optimum - min_snr) / optimum)


@dataclass(frozen=True)
class ComparisonConfig:
    """Solver settings for one comparison batch.

    A comparison reports greedy at greedy.max_epochs and at each of
    greedy.rungs, so the epoch-count ablation lands in the same table; one
    greedy solve per trial serves them all.  The delay scale is
    params.rate_factor, applied by the channel model.  genetic configures
    the GA, which only solve runs; a comparison, measured against the exact
    optimum, never runs it.
    """

    params: ChannelParams = ChannelParams()
    greedy: GreedyConfig = GreedyConfig(rungs=(500, 50))
    genetic: GeneticConfig = GeneticConfig()


# Every allocation strategy: name -> (problem, config, ga_seed) -> result.
# An entry looks its solver up in this module when it runs, so a rebinding
# of the module's name (a tracing shim) sees every call.
STRATEGIES = {
    "default": lambda problem, config, ga_seed: default_pa(problem),
    "greedy": lambda problem, config, ga_seed: greedy_pa(problem, config.greedy),
    "genetic": lambda problem, config, ga_seed: genetic_pa(
        problem, replace(config.genetic, rng_seed=ga_seed)
    ),
    "exact": lambda problem, config, ga_seed: exact_pa(problem),
}


def scene_seed(*stream: int) -> int:
    """The seed of the scene drawn for a seed stream (see solve_scene)."""
    return derive_seed(*stream, 0)


def solve_scene(
    config: ComparisonConfig, dist: DistanceMatrix, names: tuple, *stream: int
) -> dict:
    """{name: result} of each named strategy on one scene, in the order given.

    The one seed rule: seed stream `stream` draws its scene from
    scene_seed(*stream) = derive_seed(*stream, 0), runs the GA on
    derive_seed(*stream, 1) and, in aoi, rounds its ages on
    derive_seed(*stream, 2).  solve and aoi use (seed,), and compare trial t
    (spec.rng_seed, t); verify is compare at n with spec.rng_seed = seed.
    """
    problem = AllocationProblem(config.params, dist)
    ga_seed = derive_seed(*stream, 1)
    return {name: STRATEGIES[name](problem, config, ga_seed) for name in names}


def _run_trial(spec: ScenarioSpec, cfg: ComparisonConfig, trial: int) -> dict:
    """One trial's per_trial record: each strategy's row holds every statistic
    the aggregates average, so no delay matrix outlives its trial."""
    seed = scene_seed(spec.rng_seed, trial)
    dist, _ = generate_scene(replace(spec, rng_seed=seed))
    names = ("default", "greedy", REFERENCE_STRATEGY)
    default, greedy, exact = solve_scene(cfg, dist, names, spec.rng_seed, trial).values()
    budgets = (cfg.greedy.max_epochs, *cfg.greedy.rungs)
    ladder = {f"greedy_epoch{e}": r for e, r in zip(budgets, (greedy, *greedy.rungs))}
    results = {"default": default, **ladder, REFERENCE_STRATEGY: exact}
    return {
        "trial_index": trial,
        "scene_seed": seed,
        "strategies": [
            {
                "strategy": name,
                "min_snr": result.objective_min_snr,
                "epochs_used": result.epochs_used,
                "rmse_vs_reference": delay_rmse(result.delay_s, exact.delay_s),
                "gap_vs_exact": optimality_gap(result.objective_min_snr, exact.objective_min_snr),
                "delay_variance": delay_variance(result.delay_s),
                "delay_mean": delay_mean(result.delay_s),
            }
            for name, result in results.items()
        ],
    }


def run_comparison(spec: ScenarioSpec, trials: int, config: ComparisonConfig | None = None) -> dict:
    """Run every strategy over repeated scenes and average the statistics.

    Returns the comparison record that `v2vaoi compare --out` writes: each
    trial's per_trial record, and one aggregate per strategy, in row order,
    holding the mean over trials of each of its rows' AVERAGED_COLUMNS.

    The rows are default, greedy_epoch<e> for e = greedy.max_epochs and
    then each of greedy.rungs, and the exact reference, the certified
    max-min optimum, each solved through STRATEGIES; the GA is not run.
    Trial t follows solve_scene's seed rule on the stream (spec.rng_seed,
    t), so results are reproducible.  Trials run serially, in index order.
    A solver or statistic error aborts the batch, tagged with its trial index.
    """
    if not (is_integer(trials) and trials >= 1):
        raise DomainError(f"trials must be an integer >= 1, got {trials!r}")
    config = config or ComparisonConfig()
    per_trial = []
    for t in range(trials):
        try:
            per_trial.append(_run_trial(spec, config, t))
        except SimulationError as exc:
            raise SimulationError(f"trial {t} failed: {exc}") from exc
    aggregates = []
    for rows in zip(*(trial["strategies"] for trial in per_trial)):
        with np.errstate(over="ignore"):
            raw = {k: np.mean([row[k] for row in rows]) for k in AVERAGED_COLUMNS}
        means = {k: check_finite(f"mean {k} over trials", v) for k, v in raw.items()}
        aggregates.append({"strategy": rows[0]["strategy"], **means})
    return {
        "type": "comparison",
        "n": int(spec.n_vehicles),  # numpy integers are not JSON
        "trials": int(trials),
        "reference_strategy": REFERENCE_STRATEGY,
        "variance_convention": VARIANCE_CONVENTION,
        "aggregates": aggregates,
        "per_trial": per_trial,
    }
