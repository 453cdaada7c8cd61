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
from .errors import DimensionMismatchError, DomainError, SimulationError, check_finite, is_integer
from .scenario import ScenarioSpec, generate_scene
from .seeds import derive_seed

VARIANCE_CONVENTION = "population variance over ordered off-diagonal pairs"

REFERENCE_STRATEGY = "genetic"


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
    vals = offdiag_values(d)
    if vals.max() == vals.min():  # exactly zero, not mean-rounding dust
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return check_finite("delay variance", np.var(vals))


def delay_mean(d: np.ndarray) -> float:
    """Arithmetic mean of the off-diagonal delays, in seconds."""
    with np.errstate(over="ignore"):
        return check_finite("delay mean", np.mean(offdiag_values(d)))


@dataclass(frozen=True)
class ComparisonConfig:
    """Solver settings for one comparison batch.

    Every entry of greedy_epoch_ladder, a distinct integer from 1 to
    greedy.max_epochs, gets a greedy row of its own so the epoch-count
    ablation lands in the same table; one greedy solve per trial, with
    greedy as given, serves them all.  The top entry must equal
    greedy.max_epochs, so that no epoch is run for a row nobody reports.
    The delay scale is params.rate_factor, applied by the channel model.
    """

    params: ChannelParams = ChannelParams()
    greedy: GreedyConfig = GreedyConfig()
    genetic: GeneticConfig = GeneticConfig()
    greedy_epoch_ladder: tuple = (GreedyConfig.max_epochs, 500, 50)

    def __post_init__(self):
        ladder = self.greedy_epoch_ladder
        if not ladder:
            raise DomainError("greedy_epoch_ladder must not be empty")
        if not all(is_integer(e) and e >= 1 for e in ladder):
            raise DomainError(f"greedy_epoch_ladder entries must be integers >= 1, got {ladder!r}")
        if len(set(ladder)) != len(ladder):
            raise DomainError(f"greedy_epoch_ladder has duplicate entries: {ladder!r}")
        if max(ladder) > self.greedy.max_epochs:
            raise DomainError(
                f"greedy_epoch_ladder entry {max(ladder)} exceeds greedy.max_epochs "
                f"{self.greedy.max_epochs}"
            )
        if max(ladder) < self.greedy.max_epochs:
            # the solve would run past the top rung, and no row reports it
            raise DomainError(
                f"greedy.max_epochs {self.greedy.max_epochs} exceeds the top "
                f"greedy_epoch_ladder entry {max(ladder)}"
            )


# Every allocation strategy: name -> (problem, config, ga_seed) -> result.
# An entry looks its solver up in this module when it runs, so a rebinding
# of the module's name (a tracing shim) sees every call.
STRATEGIES = {
    "default": lambda problem, config, ga_seed: default_pa(problem),
    "greedy": lambda problem, config, ga_seed: greedy_pa(
        problem, config.greedy, rungs=config.greedy_epoch_ladder
    ),
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
    derive_seed(*stream, 2).  solve and aoi use (seed,), verify instance k
    (seed, k) and compare trial t (spec.rng_seed, t).
    """
    problem = AllocationProblem(config.params, dist)
    ga_seed = derive_seed(*stream, 1)
    return {name: STRATEGIES[name](problem, config, ga_seed) for name in names}


def _run_trial(spec: ScenarioSpec, cfg: ComparisonConfig, trial: int) -> tuple:
    """One trial's per_trial record and each strategy's delay matrix."""
    seed = scene_seed(spec.rng_seed, trial)
    dist, _ = generate_scene(replace(spec, rng_seed=seed))
    default, greedy, genetic = solve_scene(
        cfg, dist, ("default", "greedy", REFERENCE_STRATEGY), spec.rng_seed, trial
    ).values()
    results = {
        "default": default,
        **{f"greedy_epoch{e}": r for e, r in zip(cfg.greedy_epoch_ladder, greedy.rungs)},
        REFERENCE_STRATEGY: genetic,
    }

    delays = {name: r.delay_s for name, r in results.items()}
    record = {
        "trial_index": trial,
        "scene_seed": seed,
        "strategies": [
            {
                "strategy": name,
                "min_snr": result.objective_min_snr,
                "epochs_used": result.epochs_used,
                "rmse_vs_reference": delay_rmse(delays[name], delays[REFERENCE_STRATEGY]),
            }
            for name, result in results.items()
        ],
    }
    return record, delays


def run_comparison(spec: ScenarioSpec, trials: int, config: ComparisonConfig | None = None) -> dict:
    """Run every strategy over repeated scenes and average the statistics.

    Returns the comparison record that `v2vaoi compare --out` writes: one
    aggregate per strategy, in row order, and each trial's per-strategy
    min SNR, epochs used and RMSE against the reference.

    The rows are default, one greedy_epoch<e> per greedy_epoch_ladder rung
    and the genetic reference, each solved through STRATEGIES.  Trial t
    follows solve_scene's seed rule on the stream (spec.rng_seed, t), so
    results are reproducible.  Trials run serially, in index order.
    Solver errors abort the batch, tagged with the failing trial index.
    """
    if not (is_integer(trials) and trials >= 1):
        raise DomainError(f"trials must be an integer >= 1, got {trials!r}")
    config = config or ComparisonConfig()
    runs = []
    for t in range(trials):
        try:
            runs.append(_run_trial(spec, config, t))
        except SimulationError as exc:
            raise SimulationError(f"trial {t} failed: {exc}") from exc

    per_trial = [record for record, _ in runs]
    aggregates = []
    for idx, name in enumerate(runs[0][1]):
        series = {
            "rmse_vs_reference": [rec["strategies"][idx]["rmse_vs_reference"] for rec in per_trial],
            "delay_variance": [delay_variance(d[name]) for _, d in runs],
            "delay_mean": [delay_mean(d[name]) for _, d in runs],
        }
        with np.errstate(over="ignore"):
            agg = {k: check_finite(f"mean {k} over trials", np.mean(v)) for k, v in series.items()}
        aggregates.append({"strategy": name, **agg})
    return {
        "type": "comparison",
        "n": int(spec.n_vehicles),  # numpy integers are not JSON
        "trials": int(trials),
        "reference_strategy": REFERENCE_STRATEGY,
        "variance_convention": VARIANCE_CONVENTION,
        "aggregates": aggregates,
        "per_trial": per_trial,
    }
