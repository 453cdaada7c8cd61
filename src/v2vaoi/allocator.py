"""Power allocation for the shared channel: maximize the worst link's SNR.

Because delay is strictly decreasing in SNR, maximizing the minimum SNR and
minimizing the maximum delay are the same problem.  Constraints: every
directed link gets at least p_min_w and at most p_max_w, and each vehicle's
total transmit power may not exceed p_max_w.

Four strategies:
  default_pa  - split the budget evenly over a vehicle's outgoing links.
  greedy_pa   - iteratively shift power from the best link to the worst one,
                reprojecting onto the constraints each epoch.
  genetic_pa  - real-coded GA over the off-diagonal power vector with
                fitness = minimum SNR.
  exact_pa    - the exact optimum by bisection on the target SNR; the
                reference for testing and the `verify` command.
"""

from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelParams,
    DistanceMatrix,
    LinkMetrics,
    PowerMatrix,
    _snr,
    compute_snr_batch,
    link_metrics,
    offdiag_mask,
    offdiag_values,
    path_loss,
)
from .errors import DomainError, FeasibilityError

# Absolute slack, in watts, used by every constraint check.
FEASIBILITY_SLACK_W = 1e-9

# exact_pa's bisection stops once its bracket on the target SNR is this
# narrow, relative to the upper end.
EXACT_REL_TOL = 1e-12


@dataclass(frozen=True)
class AllocationProblem:
    """One solvable instance: channel constants plus a scene's distances."""

    params: ChannelParams
    dist: DistanceMatrix

    def __post_init__(self):
        n = self.dist.n
        if (n - 1) * self.params.p_min_w > self.params.p_max_w:
            raise FeasibilityError(
                f"row budget unsatisfiable: ({n} - 1) * p_min_w exceeds p_max_w"
            )

    @property
    def n(self) -> int:
        return self.dist.n


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs for greedy_pa.

    learn_rate is the multiplicative step applied to the worst and best
    links' powers each epoch.  The plateau detector stops early once the
    best objective improves by less than convergence_tol (relative) for
    convergence_window consecutive epochs.
    """

    learn_rate: float = 0.05
    max_epochs: int = 5000
    convergence_tol: float = 1e-6
    convergence_window: int = 20

    def __post_init__(self):
        if not (0 < self.learn_rate < 1):
            raise DomainError(f"learn_rate must be in (0, 1), got {self.learn_rate}")
        if self.max_epochs < 1:
            raise DomainError("max_epochs must be at least 1")
        if not (self.convergence_tol > 0):
            raise DomainError("convergence_tol must be positive")
        if self.convergence_window < 1:
            raise DomainError("convergence_window must be at least 1")


@dataclass(frozen=True)
class GeneticConfig:
    """Knobs for genetic_pa.

    The run stops at max_generations or after stagnation_limit generations
    without improvement, whichever comes first.
    """

    population_size: int = 50
    crossover_rate: float = 0.8
    mutation_rate: float = 0.05
    max_generations: int = 100_000
    rng_seed: int = 0
    stagnation_limit: int = 500
    creep_sigma: float = 0.25

    def __post_init__(self):
        if self.population_size < 2:
            raise DomainError("population_size must be at least 2")
        if not (0 <= self.crossover_rate <= 1):
            raise DomainError("crossover_rate must be in [0, 1]")
        if not (0 <= self.mutation_rate <= 1):
            raise DomainError("mutation_rate must be in [0, 1]")
        if self.max_generations < 1:
            raise DomainError("max_generations must be at least 1")
        if self.stagnation_limit < 1:
            raise DomainError("stagnation_limit must be at least 1")
        if not (self.creep_sigma > 0):
            raise DomainError("creep_sigma must be positive")


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one solver run; all constraints re-verified post-solve."""

    power: PowerMatrix
    metrics: LinkMetrics
    objective_min_snr: float
    objective_max_delay_s: float
    epochs_used: int
    converged: bool
    strategy_name: str
    history: tuple = ()  # best-so-far objective after each epoch/generation


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def check_feasible(power: PowerMatrix, params: ChannelParams) -> FeasibilityReport:
    """Verify per-link bounds and per-vehicle budgets within absolute slack.

    Total function: never raises, reports every violated constraint.
    """
    p = power.p
    n = power.n
    mask = offdiag_mask(n)
    violations = []
    low = mask & (p < params.p_min_w - FEASIBILITY_SLACK_W)
    for i, j in np.argwhere(low):
        violations.append(
            f"P[{i}][{j}]={p[i, j]:.6g} W below per-link minimum {params.p_min_w:.6g} W"
        )
    high = mask & (p > params.p_max_w + FEASIBILITY_SLACK_W)
    for i, j in np.argwhere(high):
        violations.append(
            f"P[{i}][{j}]={p[i, j]:.6g} W above per-link maximum {params.p_max_w:.6g} W"
        )
    row_sums = p.sum(axis=1)
    for i in np.flatnonzero(row_sums > params.p_max_w + FEASIBILITY_SLACK_W):
        violations.append(
            f"row {i} sum {row_sums[i]:.6g} W exceeds budget {params.p_max_w:.6g} W"
        )
    return FeasibilityReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# projection onto the constraint set
# ---------------------------------------------------------------------------


def _cap_rows_to_budget(rows: np.ndarray, budget: float) -> np.ndarray:
    """Lower each row's largest entries to a common level so it sums to budget.

    Entries below the level are untouched.  Rows already within budget come
    back unchanged.  Shape (..., m).
    """
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
    return np.minimum(rows, w)


def _project_offdiag_rows(rows: np.ndarray, p_min: float, p_max: float) -> np.ndarray:
    """Project rows of outgoing-link powers onto the constraint set.

    Clamp to the per-link bounds; rows over budget are rescaled
    multiplicatively, entries pushed under the floor are clamped back up,
    and the residual excess is absorbed by capping the largest entries.
    Feasible rows pass through bit-identically.
    """
    out = np.clip(rows, p_min, p_max)
    sums = out.sum(axis=-1)
    over = sums > p_max
    if np.any(over):
        scaled = out[over] * (p_max / sums[over])[..., np.newaxis]
        scaled = np.maximum(scaled, p_min)
        out[over] = _cap_rows_to_budget(scaled, p_max)
    return out


def project_to_feasible(power: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Project raw power matrices (n, n) or a stack (m, n, n) onto the
    constraint set, keeping diagonals at zero."""
    power = np.asarray(power, dtype=np.float64)
    square = power.ndim == 2
    stack = power[np.newaxis] if square else power
    n = stack.shape[-1]
    mask = offdiag_mask(n)
    rows = stack[:, mask].reshape(stack.shape[0], n, n - 1)
    rows = _project_offdiag_rows(rows, params.p_min_w, params.p_max_w)
    out = np.zeros_like(stack)
    out[:, mask] = rows.reshape(stack.shape[0], n * (n - 1))
    return out[0] if square else out


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _uniform_power(problem: AllocationProblem) -> np.ndarray:
    n = problem.n
    share = problem.params.p_max_w / (n - 1)
    p = np.full((n, n), share)
    np.fill_diagonal(p, 0.0)
    return p


def _finish(
    problem: AllocationProblem,
    p: np.ndarray,
    *,
    epochs_used: int,
    converged: bool,
    strategy_name: str,
    history: tuple = (),
) -> AllocationResult:
    power = PowerMatrix(p)
    report = check_feasible(power, problem.params)
    if not report:
        raise FeasibilityError(
            f"{strategy_name} produced an infeasible allocation: {report.violations[0]}"
        )
    metrics = link_metrics(problem.params, problem.dist, power)
    return AllocationResult(
        power=power,
        metrics=metrics,
        objective_min_snr=metrics.min_snr(),
        objective_max_delay_s=metrics.max_delay_s(),
        epochs_used=epochs_used,
        converged=converged,
        strategy_name=strategy_name,
        history=history,
    )


def default_pa(problem: AllocationProblem) -> AllocationResult:
    """Even split: every vehicle divides its budget over its n-1 links."""
    return _finish(
        problem,
        _uniform_power(problem),
        epochs_used=0,
        converged=True,
        strategy_name="default",
    )


def _off_fixed_point(rows: np.ndarray, p_min: float, p_max: float) -> np.ndarray:
    """Per row: would _project_offdiag_rows change it?

    A row with every entry in [p_min, p_max] and a sum within p_max passes
    through the projection bit-identically; any other row may not.
    """
    outside = ((rows < p_min) | (rows > p_max)).any(axis=-1)
    return outside | (rows.sum(axis=-1) > p_max)


def greedy_pa(problem: AllocationProblem, cfg: GreedyConfig | None = None) -> AllocationResult:
    """Shift power toward the worst link, away from the best, epoch by epoch.

    Starts from the even split.  Each epoch multiplies the minimum-SNR
    link's power by (1 + learn_rate) and the maximum-SNR link's by
    (1 - learn_rate), then reprojects onto the constraints.  Ties go to
    the first link in row-major order.  The best allocation seen so far
    (by min-SNR) is returned, so the objective history is non-decreasing.
    Fully deterministic.

    The path loss is computed once per solve.  An epoch reprojects only
    the two rows it changed and any row the last projection left off its
    fixed point, which gives the same powers as reprojecting every row.
    The returned allocation is validated once, in _finish.
    """
    cfg = cfg or GreedyConfig()
    params = problem.params
    p_min, p_max = params.p_min_w, params.p_max_w
    n = problem.n
    loss = path_loss(params, problem.dist)
    p = _uniform_power(problem)
    # rows[i] holds vehicle i's n-1 outgoing powers and row_flat their flat
    # indices in p; links[k] is the k-th off-diagonal entry in row-major
    # order, the order of snr_off, so argmin and argmax break ties as a
    # row-major scan of the matrix would
    row_flat = np.flatnonzero(offdiag_mask(n)).reshape(n, n - 1)
    rows = p.take(row_flat)
    links = rows.reshape(-1)
    snr_off = _snr(loss, p, params.noise_w).take(row_flat).reshape(-1)
    worst = int(np.argmin(snr_off))
    best_obj = float(snr_off[worst])
    best_p = p.copy()
    # the even split is not always a fixed point: (n-1) * (p_max/(n-1))
    # can round above p_max
    pending = np.ones(n, dtype=bool)
    history = []
    stall = 0
    converged = False
    epochs_used = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_used = epoch
        strongest = int(np.argmax(snr_off))
        links[worst] *= 1.0 + cfg.learn_rate
        links[strongest] *= 1.0 - cfg.learn_rate
        pending[worst // (n - 1)] = pending[strongest // (n - 1)] = True
        touched = np.flatnonzero(pending)
        fresh = _project_offdiag_rows(rows[touched], p_min, p_max)
        rows[touched] = fresh
        p.put(row_flat[touched], fresh)
        pending[touched] = _off_fixed_point(fresh, p_min, p_max)
        snr_off = _snr(loss, p, params.noise_w).take(row_flat).reshape(-1)
        worst = int(np.argmin(snr_off))
        obj = float(snr_off[worst])
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


def _genes_to_rows(genes: np.ndarray, n: int) -> np.ndarray:
    # chromosome = off-diagonal powers, row-major, so each consecutive block
    # of n-1 genes is one vehicle's outgoing row
    return genes.reshape(genes.shape[0], n, n - 1)


def _rows_to_matrices(rows: np.ndarray, n: int) -> np.ndarray:
    mask = offdiag_mask(n)
    out = np.zeros((rows.shape[0], n, n))
    out[:, mask] = rows.reshape(rows.shape[0], n * (n - 1))
    return out


def genetic_pa(problem: AllocationProblem, cfg: GeneticConfig | None = None) -> AllocationResult:
    """Real-coded GA over the off-diagonal power vector, fitness = min SNR.

    Tournament selection (size 3), per-gene uniform crossover, per-gene
    mutation that either resamples log-uniformly over [p_min_w, p_max_w]
    or creeps multiplicatively (50/50), elitism of one, and projection onto
    the constraints after every variation.  Deterministic for a fixed seed.
    """
    cfg = cfg or GeneticConfig()
    params = problem.params
    dist = problem.dist
    n = problem.n
    n_genes = n * (n - 1)
    pop_size = cfg.population_size
    rng = np.random.default_rng(cfg.rng_seed)
    ln_lo = np.log(params.p_min_w)
    ln_hi = np.log(params.p_max_w)
    mask = offdiag_mask(n)

    def project(genes: np.ndarray) -> np.ndarray:
        rows = _project_offdiag_rows(
            _genes_to_rows(genes, n), params.p_min_w, params.p_max_w
        )
        return rows.reshape(genes.shape[0], n_genes)

    def fitness(genes: np.ndarray) -> np.ndarray:
        snr = compute_snr_batch(params, dist, _rows_to_matrices(_genes_to_rows(genes, n), n))
        return snr[:, mask].min(axis=1)

    def random_genes(count: int) -> np.ndarray:
        return project(np.exp(rng.uniform(ln_lo, ln_hi, size=(count, n_genes))))

    pop = random_genes(pop_size)
    fit = fitness(pop)
    best_idx = int(np.argmax(fit))
    best_fit = float(fit[best_idx])
    best_genes = pop[best_idx].copy()
    history = [best_fit]
    stagnation = 0
    converged = False
    generations = 0

    for _ in range(cfg.max_generations):
        generations += 1
        # tournament selection, size 3
        entrants = rng.integers(0, pop_size, size=(pop_size, 3))
        winners = entrants[np.arange(pop_size), np.argmax(fit[entrants], axis=1)]
        children = pop[winners].copy()
        # uniform crossover on consecutive pairs
        n_pairs = pop_size // 2
        do_cross = rng.random(n_pairs) < cfg.crossover_rate
        swap = rng.random((n_pairs, n_genes)) < 0.5
        swap &= do_cross[:, np.newaxis]
        first = children[0 : 2 * n_pairs : 2]
        second = children[1 : 2 * n_pairs : 2]
        tmp = first[swap]
        first[swap] = second[swap]
        second[swap] = tmp
        # mutation: log-uniform reset or multiplicative creep, half and half
        mutate = rng.random((pop_size, n_genes)) < cfg.mutation_rate
        use_reset = rng.random((pop_size, n_genes)) < 0.5
        resets = np.exp(rng.uniform(ln_lo, ln_hi, size=(pop_size, n_genes)))
        creeps = children * np.exp(rng.normal(0.0, cfg.creep_sigma, size=(pop_size, n_genes)))
        mutated = np.where(use_reset, resets, creeps)
        children = np.where(mutate, mutated, children)
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
        if stagnation >= cfg.stagnation_limit:
            converged = True
            break

    best_rows = _project_offdiag_rows(
        best_genes[np.newaxis].reshape(1, n, n - 1), params.p_min_w, params.p_max_w
    )
    best_matrix = _rows_to_matrices(best_rows, n)[0]
    return _finish(
        problem,
        best_matrix,
        epochs_used=generations,
        converged=converged,
        strategy_name="genetic",
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# exact max-min solver
# ---------------------------------------------------------------------------

def exact_pa(problem: AllocationProblem) -> AllocationResult:
    """Maximum of the worst link's SNR, by bisection on a target SNR.

    For a target gamma every link needs g_ij >= beta * (S_j + N), with
    g_ij = P_ij / D_ij**alpha its received gain, S_j the total gain arriving
    at receiver j, N the noise and beta = gamma / (1 + gamma).  Receiver j's
    smallest gains are g_ij = max(f_ij, c_j), where f_ij is the gain at the
    per-link floor p_min_w and c_j is the least solution of
    c = beta * (sum_i max(f_ij, c) + N).  Flooring the k largest f_ij of the
    column gives the candidate beta * (F_k + N) / (1 - (n-1-k) * beta), the
    fixed point of a function that lower-bounds the true one, so c_j is the
    largest candidate.  That point is componentwise minimal, and the budgets
    only cap sums of powers, so gamma is achievable exactly when every row
    of the minimal powers fits the budget.

    The bracket runs from the even split's objective (achieved) to
    1/(n-2), which no allocation reaches: the weakest sender into a
    receiver is drowned out by the n-2 others, each at least as strong, so
    its SNR is below g / ((n-2) * g) = 1/(n-2).  The returned allocation is the
    minimal point at the achieved end, or the even split itself if no
    higher target was feasible.  With two vehicles there is no
    interference and the even split (both links at p_max_w) is optimal.
    """
    params = problem.params
    n = problem.n
    best = _uniform_power(problem)
    steps = 0
    if n > 2:
        mask = offdiag_mask(n)
        atten = path_loss(params, problem.dist)
        floors = np.zeros((n, n))
        floors[mask] = params.p_min_w / atten[mask]
        # column j's floors without the diagonal, largest first; prefix sums
        # F_0 = 0 .. F_{n-2} of the k largest
        cols = -np.sort(-floors.T[mask].reshape(n, n - 1), axis=1)
        prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(cols[:, :-1], axis=1)], axis=1)
        unfloored = np.arange(n - 1, 0, -1)  # n-1-k for k = 0 .. n-2

        def minimal_power(gamma: float) -> np.ndarray:
            beta = gamma / (1.0 + gamma)
            c = (beta * (prefix + params.noise_w) / (1.0 - unfloored * beta)).max(axis=1)
            p = np.maximum(floors, c[np.newaxis, :]) * atten
            np.fill_diagonal(p, 0.0)
            return p

        lo = float(offdiag_values(_snr(atten, best, params.noise_w)).min())
        hi = 1.0 / (n - 2)
        while hi - lo > EXACT_REL_TOL * hi:
            steps += 1
            mid = 0.5 * (lo + hi)
            p = minimal_power(mid)
            if np.all(p.sum(axis=1) <= params.p_max_w):
                lo, best = mid, p
            else:
                hi = mid
    return _finish(problem, best, epochs_used=steps, converged=True, strategy_name="exact")
