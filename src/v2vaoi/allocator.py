"""Power allocation for the shared channel: maximize the worst link's SNR.

Because delay is strictly decreasing in SNR, maximizing the minimum SNR and
minimizing the maximum delay are the same problem.  Constraints: every
directed link gets at least p_min_w and at most p_max_w, and each vehicle's
budget sum, np.add.reduce over its n-1 outgoing powers (the one sum that
every check here uses, exactly), may not exceed p_max_w.

Four strategies:
  default_pa  - split the budget evenly over a vehicle's outgoing links.
  greedy_pa   - iteratively shift power from the best link to the worst one,
                reprojecting onto the constraints each epoch.
  genetic_pa  - real-coded GA over the off-diagonal power vector with
                fitness = minimum SNR.
  exact_pa    - the exact max-min optimum, the reference row of `compare`
                and `verify`; _bisect_max_min states the argument.

exact_pa also ends with an upper bound that no allocation reaches,
AllocationResult.upper_bound.  genetic_pa stops once its best is
certified within GA_CERTIFIED_GAP of that bound, so a GA result is either
within 1% of the optimum or was cut by its stagnation or generation limit.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from operator import truediv

import numpy as np

from .channel import (
    ChannelParams,
    DistanceMatrix,
    PowerMatrix,
    _offdiag_view,
    _receivers,
    _snr,
    _snr_of_gain,
    compute_delay_matrix,
    from_offdiag_rows,
    offdiag_rows,
    path_loss,
)
from .errors import DomainError, FeasibilityError, check_integers, is_integer

# exact_pa stops once its bracket on the target SNR is this narrow,
# relative to the upper end.
EXACT_REL_TOL = 1e-12

# greedy_pa's plateau stop (_Progress): its relative tol and window in epochs.
GREEDY_CONVERGENCE_TOL = 1e-6
GREEDY_CONVERGENCE_WINDOW = 20

# greedy_pa holds a scene of at most this many vehicles as a flat list of
# Python floats, a larger one as NumPy rows.  The list layout solves
# 1.72/1.44/1.24/1.05/0.91/0.79 times as fast at n = 3/4/5/6/7/8 (2-core VM,
# median of 8 scenes, 300 epochs, three runs; n = 6 read 1.05-1.06).  It may
# not exceed 8: the list sums a row of n-1 links left to right, which is
# np.add.reduce's order for 7 entries at most, and at n = 9 a fitted row
# fails the budget check.
GREEDY_LIST_MAX_N = 6

# genetic_pa's variation: the chance that a pair is crossed, the chance that
# a gene mutates, and the log-scale spread of a multiplicative creep.
GA_CROSSOVER_RATE = 0.8
GA_MUTATION_RATE = 0.05
GA_CREEP_SIGMA = 0.25

# genetic_pa's certified stop: its best min-SNR is at least
# (1 - GA_CERTIFIED_GAP) times exact_pa's upper bound, so within this
# fraction of the optimum.  Measured over compare-default's 63 trials, the
# GA runs 20% of the generations its stagnation stop would at 1%, 47% at
# 0.3% and 77% at 0.1%.
GA_CERTIFIED_GAP = 0.01


@dataclass(frozen=True)
class AllocationProblem:
    """One solvable instance: channel constants plus a scene's distances,
    refused unless n-1 links at p_min_w fit the budget by the one sum.

    Two inputs are computed on first use and shared by every solver run
    on the problem: loss (the scene's path loss) and even_split (the
    projected even split).
    """

    params: ChannelParams
    dist: DistanceMatrix

    def __post_init__(self):
        n, p_min, p_max = self.dist.n, self.params.p_min_w, self.params.p_max_w
        with np.errstate(over="ignore"):  # a sum past the float range fails too
            floors = float(np.add.reduce(np.full(n - 1, p_min)))
        if not floors <= p_max:
            raise FeasibilityError(
                f"row budget unsatisfiable: {n - 1} links at p_min_w {p_min} W "
                f"sum to {floors} W, over p_max_w {p_max} W"
            )

    @property
    def n(self) -> int:
        return self.dist.n

    @cached_property
    def loss(self) -> np.ndarray:
        """channel.path_loss of the scene: read-only (n, n-1) rows."""
        return path_loss(self.params, self.dist)

    @cached_property
    def even_split(self) -> np.ndarray:
        """The projected even split as read-only offdiag_rows: at 23 W its
        rows sum a rounding step over budget at n = 13, 14, 16, 23 ..."""
        n, params = self.n, self.params
        rows = np.full((n, n - 1), params.p_max_w / (n - 1))
        rows = _project_offdiag_rows(rows, params.p_min_w, params.p_max_w)
        rows.flags.writeable = False
        return rows


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs for greedy_pa.

    learn_rate is the multiplicative step applied to the worst and best
    links' powers each epoch.  The run stops at max_epochs or at
    _Progress's plateau stop.  rungs are smaller epoch budgets, distinct
    integers from 1 to max_epochs - 1, whose results the same solve also
    returns in result.rungs.
    """

    learn_rate: float = 0.05
    max_epochs: int = 5000
    rungs: tuple = ()

    def __post_init__(self):
        check_integers(self, "max_epochs", least=1)
        if not (0 < self.learn_rate < 1):
            raise DomainError(f"learn_rate must be in (0, 1), got {self.learn_rate}")
        rungs = self.rungs
        in_range = all(is_integer(r) and 1 <= r < self.max_epochs for r in rungs)
        if not (in_range and len(set(rungs)) == len(rungs)):
            raise DomainError(
                f"rungs must be distinct integers in 1..{self.max_epochs - 1}, got {rungs!r}"
            )


@dataclass(frozen=True)
class GeneticConfig:
    """Knobs for genetic_pa.

    stagnation_limit is the window of _Progress's plateau stop; the run
    ends after max_generations at the latest.
    """

    population_size: int = 50
    max_generations: int = 100_000
    rng_seed: int = 0
    stagnation_limit: int = 500

    def __post_init__(self):
        check_integers(self, "population_size", least=2)
        check_integers(self, "max_generations", "stagnation_limit", least=1)
        check_integers(self, "rng_seed", least=0)


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one solver run; all constraints re-verified post-solve.

    snr and delay_s are the read-only (n, n) matrices that
    compute_snr_matrix and compute_delay_matrix give, and the objectives
    their off-diagonal min and max.  stop_reason names the rule that ended
    the solve: greedy's and the GA's _Progress reason, "certified" for
    exact_pa, whose upper_bound certifies it, and "budget" for the even
    split, which takes no step.  upper_bound, exact_pa's alone, is a min-SNR
    that no allocation reaches (the optimum at n = 2).
    """

    power: PowerMatrix
    snr: np.ndarray
    delay_s: np.ndarray
    objective_min_snr: float
    objective_max_delay_s: float
    epochs_used: int
    stop_reason: str  # "budget", "plateau" or "certified"
    strategy_name: str
    history: tuple = ()  # best so far: per greedy epoch; the GA's initial, then per generation
    rungs: tuple = ()  # greedy_pa's results at GreedyConfig.rungs, in their order
    upper_bound: float | None = None


def check_feasible(power: PowerMatrix, params: ChannelParams) -> tuple:
    """Verify per-link bounds and per-vehicle budgets exactly, with no
    slack; a budget sum is np.add.reduce over a row's n-1 off-diagonal powers.

    Returns one message per violated constraint, an empty tuple when the
    allocation is feasible.  Total function: never raises.  A feasible
    allocation costs one min, one max and one row-sum pass; the messages
    are built only when one fails.
    """
    p, p_min, p_max = power.p, params.p_min_w, params.p_max_w
    rows = offdiag_rows(p)
    row_sums = np.add.reduce(rows, axis=1)
    if rows.min() >= p_min and rows.max() <= p_max and row_sums.max() <= p_max:
        return ()
    mask = ~np.eye(power.n, dtype=bool)  # the diagonal's zeros are not links
    low = np.argwhere(mask & (p < p_min))
    high = np.argwhere(mask & (p > p_max))
    over = np.flatnonzero(row_sums > p_max)
    return (
        *(f"P[{i}][{j}]={p[i, j]:.6g} W below per-link minimum {p_min:.6g} W" for i, j in low),
        *(f"P[{i}][{j}]={p[i, j]:.6g} W above per-link maximum {p_max:.6g} W" for i, j in high),
        *(f"row {i} sum {row_sums[i]:.6g} W exceeds budget {p_max:.6g} W" for i in over),
    )


# ---------------------------------------------------------------------------
# projection onto the constraint set
# ---------------------------------------------------------------------------


def _cap_rows_to_budget(rows: np.ndarray, p_min: float, p_max: float) -> np.ndarray:
    """Lower each row's largest entries to a common level in [p_min, max
    entry] so its budget sum, np.add.reduce over the row, is at most p_max,
    unless every entry sits at p_min.

    Where the search's level leaves that sum over p_max by rounding, the
    guard lowers it by the excess per capped entry, at least one float
    step, never under p_min.  Shape (k, m), entries finite, at least p_min.
    """
    k, m = rows.shape
    u = np.sort(rows, axis=1)[:, ::-1]
    csum = np.cumsum(u, axis=1)
    tail = csum[:, -1:] - csum  # sum of entries strictly after the j-th largest
    level = (p_max - tail) / np.arange(1, m + 1, dtype=np.float64)
    # smallest j whose level lands at or above the next entry down; the
    # smallest entry has none below it, so the last column always qualifies
    ok = np.empty((k, m), dtype=bool)
    np.greater_equal(level[:, :-1], u[:, 1:], out=ok[:, :-1])
    ok[:, -1] = True
    w = np.maximum(level[np.arange(k), ok.argmax(axis=1)], p_min)
    out = np.minimum(rows, w[:, np.newaxis])
    sums = np.add.reduce(out, axis=1)
    todo = (sums > p_max).nonzero()[0]
    while todo.size:  # the guard, from a level no higher than the largest entry
        wi, ri = np.minimum(w[todo], u[todo, 0]), rows[todo]
        step = (sums[todo] - p_max) / np.count_nonzero(ri >= wi[:, np.newaxis], axis=1)
        w[todo] = wi = np.maximum(np.minimum(wi - step, np.nextafter(wi, -np.inf)), p_min)
        out[todo] = fitted = np.minimum(ri, wi[:, np.newaxis])
        sums[todo] = np.add.reduce(fitted, axis=1)
        todo = todo[(sums[todo] > p_max) & (wi > p_min)]
    return out


def _fit_level(scaled: list, p_min: float, p_max: float) -> float:
    """The level that greedy's fit caps a rescaled, floored row at:
    _cap_rows_to_budget's search as a scan that stops at the first level at
    or above the next entry down, bit-identical to it: the same IEEE
    expressions in the same order (prefix sums left to right, as np.cumsum
    adds them).  On one short row, Python's sort and prefix sums cost less
    than numpy's."""
    u = sorted(scaled, reverse=True)
    csum = list(accumulate(u))
    acc = csum[-1]
    for j in range(len(u) - 1):
        level = (p_max - (acc - csum[j])) / (j + 1)
        if level >= u[j + 1]:
            break
    else:  # the smallest entry has none below it
        level = p_max / len(u)
    return min(max(level, p_min), u[0])


def _fit_row_to_budget(row: np.ndarray, p_min: float, p_max: float) -> None:
    """Project one clamped row in place: fit it if it sums over p_max.

    Greedy's fit: _project_offdiag_rows' rescale, floor and cap on one row,
    bit-identical to it, with the level from _fit_level.  A row of at most
    7 links is fitted on Python floats by _fit_list_row, in fewer calls.
    """
    if row.size <= 7:  # np.add.reduce adds up to 7 entries left to right
        row[:] = _fit_list_row(row.tolist(), p_min, p_max)
        return
    total = np.add.reduce(row)
    if total <= p_max:
        return
    scaled = row * (p_max / total)
    np.maximum(scaled, p_min, out=scaled)
    level = _fit_level(scaled.tolist(), p_min, p_max)
    np.minimum(scaled, level, out=row)
    while (total := np.add.reduce(row)) > p_max and level > p_min:  # the guard
        step = (total - p_max) / np.count_nonzero(scaled >= level)
        level = max(min(level - step, np.nextafter(level, -np.inf)), p_min)
        np.minimum(scaled, level, out=row)


def _row_sum(row: list) -> float:
    """np.add.reduce of a row of at most 7 floats, which NumPy adds strictly
    left to right (its pairwise sum splits from 8 entries on).  Not the
    builtin sum(), which compensates floats from Python 3.12."""
    total = 0.0
    for x in row:
        total += x
    return total


def _fit_list_row(row: list, p_min: float, p_max: float) -> list:
    """_fit_row_to_budget on a row of at most 7 Python floats: the row
    itself when it fits, else a new fitted row, bit-identical to the NumPy
    fit.  Comparisons, max, min and math.nextafter stand for np.maximum,
    np.minimum and np.nextafter; no NaN reaches them."""
    total = _row_sum(row)
    if total <= p_max:
        return row
    ratio = p_max / total
    scaled = [y if (y := x * ratio) > p_min else p_min for x in row]
    level = _fit_level(scaled, p_min, p_max)
    row = [x if x < level else level for x in scaled]
    while (total := _row_sum(row)) > p_max and level > p_min:  # the guard
        step = (total - p_max) / len([x for x in scaled if x >= level])
        level = max(min(level - step, math.nextafter(level, -math.inf)), p_min)
        row = [x if x < level else level for x in scaled]
    return row


def _project_offdiag_rows(rows: np.ndarray, p_min: float, p_max: float) -> np.ndarray:
    """Project rows of outgoing-link powers onto the constraint set.

    Clamp to the per-link bounds; rows whose np.add.reduce sum exceeds p_max
    are rescaled multiplicatively, entries pushed under the floor are
    clamped back up, and the residual excess is absorbed by capping the
    largest entries.  Feasible rows pass through bit-identically; every
    output row is a fixed point, within budget by that sum wherever its
    floors are, as in every AllocationProblem.  Projects in place and
    returns rows, so the caller must own them.
    """
    np.maximum(rows, p_min, out=rows)
    np.minimum(rows, p_max, out=rows)
    sums = np.add.reduce(rows, axis=-1)
    over = sums > p_max
    if over.any():
        scaled = rows[over] * (p_max / sums[over])[..., np.newaxis]
        np.maximum(scaled, p_min, out=scaled)
        rows[over] = _cap_rows_to_budget(scaled, p_min, p_max)
    return rows


def project_to_feasible(power: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Project raw power matrices (n, n) or a stack (m, n, n) onto the
    constraint set, keeping diagonals at zero.  Any params are accepted: a
    row whose n-1 floors sum over p_max_w cannot fit and ends all at p_min."""
    rows = offdiag_rows(np.asarray(power, dtype=np.float64))
    return from_offdiag_rows(_project_offdiag_rows(rows, params.p_min_w, params.p_max_w))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _finish(
    problem: AllocationProblem,
    rows: np.ndarray,
    *,
    epochs_used: int,
    stop_reason: str,
    strategy_name: str,
    history: tuple = (),
    upper_bound: float | None = None,
) -> AllocationResult:
    """The result of a solve: the one place its offdiag_rows become a matrix."""
    power = PowerMatrix(from_offdiag_rows(rows))
    violations = check_feasible(power, problem.params)
    if violations:
        raise FeasibilityError(
            f"{strategy_name} produced an infeasible allocation: {violations[0]}"
        )
    # compute_snr_matrix's bits, on the problem's path loss
    snr = from_offdiag_rows(_snr(problem.loss, rows, problem.params.noise_w))
    delay = compute_delay_matrix(problem.params, snr)
    snr.flags.writeable = False
    delay.flags.writeable = False
    return AllocationResult(
        power=power,
        snr=snr,
        delay_s=delay,
        objective_min_snr=float(_offdiag_view(snr).min()),
        objective_max_delay_s=float(_offdiag_view(delay).max()),
        epochs_used=epochs_used,
        stop_reason=stop_reason,
        strategy_name=strategy_name,
        history=history,
        upper_bound=upper_bound,
    )


class _Progress:
    """One iterative solve's best so far and its stop rule, stepped once per
    epoch or generation with the allocation that the step reached.

    A new best is a real gain when it beats best by at least tol, relative
    (any gain over a zero best).  reason turns from "budget" to "certified"
    once best reaches certify_at, or to "plateau" after window steps in a
    row without a real gain (by default greedy's plateau stop); the solve
    stops at the first reason other than "budget", or else at its budget.
    history holds best at the start and after each step, and best_at a copy
    of the allocation that reached best, refreshed in place on each gain.
    snapshots maps each rung, a step count, to a copy of best_at taken after
    that step if the solve runs past it, else None.
    """

    def __init__(self, best: float, at, window: int = GREEDY_CONVERGENCE_WINDOW,
                 tol: float = GREEDY_CONVERGENCE_TOL, certify_at: float = np.inf, rungs=()):
        self.best, self.best_at, self.stall, self.history = best, at.copy(), 0, [best]
        self.window, self.tol, self.certify_at = window, tol, certify_at
        self.snapshots = dict.fromkeys(rungs)
        self.reason = "certified" if best >= certify_at else "budget"

    def step(self, obj: float, at) -> bool:
        """Count one step that reached obj with allocation at; True if the solve stops."""
        best = self.best
        if obj > best:
            real = best == 0.0 or (obj - best) / best >= self.tol
            self.stall = 0 if real else self.stall + 1
            self.best = best = obj
            self.best_at[:] = at
        else:
            self.stall += 1
        self.history.append(best)
        if best >= self.certify_at:
            self.reason = "certified"
        elif self.stall >= self.window:
            self.reason = "plateau"
        else:
            if (steps := len(self.history) - 1) in self.snapshots:
                self.snapshots[steps] = self.best_at.copy()
            return False
        return True


def default_pa(problem: AllocationProblem) -> AllocationResult:
    """Even split: every vehicle divides its budget over its n-1 links."""
    return _finish(
        problem, problem.even_split, epochs_used=0, stop_reason="budget", strategy_name="default"
    )


def greedy_pa(problem: AllocationProblem, cfg: GreedyConfig | None = None) -> AllocationResult:
    """Shift power toward the worst link, away from the best, epoch by epoch.

    Starts from the projected even split.  Each epoch multiplies the
    minimum-SNR link's power by (1 + learn_rate) and the maximum-SNR link's by
    (1 - learn_rate), then reprojects onto the constraints.  Ties go to
    the first link in row-major order.  The best allocation seen so far
    (by min-SNR) is returned, so the objective history is non-decreasing.
    Fully deterministic.

    result.rungs holds, in cfg.rungs order, exactly what a separate solve
    with max_epochs = rung returns: the best allocation, epochs_used,
    history and stop_reason "budget" after that epoch, or the final ones if
    the run stopped at or before it.

    The solve holds only the n(n-1) off-diagonal powers, links[k] the k-th
    in row-major order, the order of the SNRs, so the first minimum and
    maximum break ties as a row-major scan of the matrix would.  Each epoch
    raises the worst link and lowers the strongest, then clamps both, and
    fits the raised link's row (vehicle i's n-1 outgoing powers) to the
    budget.  Invariant: every row is a fixed point of the projection.  The
    projected even split's rows are, fitted rows are, and the lowered link's
    one entry fell or was floored back to at most its old value, so its
    row's budget sum cannot rise: the bits are those of projecting every row.

    The state has two layouts, chosen by the scene's size alone, each with
    its own epoch loop: _greedy_row_epochs above GREEDY_LIST_MAX_N vehicles,
    _greedy_list_epochs at or below it.  Both keep their gains, fit a row of
    at most 7 links on floats and give the same bits.  Each returns its
    _Progress, whose best links and rung snapshots give the final result
    and the rung results.
    """
    cfg = cfg or GreedyConfig()
    n = problem.n
    run_epochs = _greedy_list_epochs if n <= GREEDY_LIST_MAX_N else _greedy_row_epochs
    track = run_epochs(problem, cfg)

    def finish(best_links: list | np.ndarray, epochs: int, reason: str) -> AllocationResult:
        return _finish(problem, np.reshape(best_links, (n, n - 1)), epochs_used=epochs,
                       stop_reason=reason, strategy_name="greedy",
                       history=tuple(track.history[1 : epochs + 1]))

    epochs_used = len(track.history) - 1
    final = finish(track.best_at, epochs_used, track.reason)
    return replace(final, rungs=tuple(
        final if r >= epochs_used else finish(track.snapshots[r], r, "budget") for r in cfg.rungs
    ))


def _greedy_row_epochs(problem: AllocationProblem, cfg: GreedyConfig) -> _Progress:
    """greedy_pa's epochs on the (n, n-1) NumPy rows: fitted by
    _fit_row_to_budget, evaluated by _snr_of_gain on gains rows / loss that
    an epoch divides again only for the fitted row and the lowered link, the
    only powers that moved, and scanned by argmin and argmax.  Returns the
    _Progress that stopped the run, stepped with the flat links.  The state
    and its gains are allocated once."""
    params = problem.params
    p_min, p_max, noise_w, loss = params.p_min_w, params.p_max_w, params.noise_w, problem.loss
    m = problem.n - 1
    rows = problem.even_split.copy()
    gain = rows / loss
    links, gain_links = rows.reshape(-1), gain.reshape(-1)
    row_views, loss_rows, gain_rows = list(rows), list(loss), list(gain)  # views, built once
    up, down = 1.0 + cfg.learn_rate, 1.0 - cfg.learn_rate
    for epoch in range(cfg.max_epochs + 1):  # epoch 0 evaluates the even split
        if epoch:
            links[worst] *= up
            links[strongest] *= down
            for k in (worst, strongest):  # as the projection clamps: max, then min
                links[k] = min(max(links[k], p_min), p_max)
            i = worst // m
            _fit_row_to_budget(row_views[i], p_min, p_max)
            np.divide(row_views[i], loss_rows[i], out=gain_rows[i])
            gain_links[strongest] = links.item(strongest) / loss.item(strongest)
        snr = _snr_of_gain(gain, noise_w).reshape(-1)
        worst, strongest = int(snr.argmin()), int(snr.argmax())
        if not epoch:
            track = _Progress(snr.item(worst), links, rungs=cfg.rungs)
        elif track.step(snr.item(worst), links):
            break
    return track


def _greedy_list_epochs(problem: AllocationProblem, cfg: GreedyConfig) -> _Progress:
    """_greedy_row_epochs on one flat list of Python floats, where NumPy's
    fixed cost per call outweighs the work: bit-identical, its gains kept
    and re-derived the same way, and its _Progress stepped with the list.

    An epoch fits the raised row by _fit_list_row, adds each receiver's
    gains in link order from 0.0, as _snr's np.bincount does, and forms each
    SNR as the same IEEE expression g / ((S_j - g) + noise_w), whose
    denominator is at least noise_w > 0.  The scans are lst.index(min(lst))
    and lst.index(max(lst)), which keep the first occurrence.
    """
    params = problem.params
    p_min, p_max, noise_w = params.p_min_w, params.p_max_w, params.noise_w
    n = problem.n
    m = n - 1
    links = problem.even_split.reshape(-1).tolist()
    loss = problem.loss.reshape(-1).tolist()
    recv = _receivers(1, n).tolist()
    gain = list(map(truediv, links, loss))
    up, down = 1.0 + cfg.learn_rate, 1.0 - cfg.learn_rate
    for epoch in range(cfg.max_epochs + 1):  # epoch 0 evaluates the even split
        if epoch:
            links[worst] *= up
            links[strongest] *= down
            for k in (worst, strongest):  # as the projection clamps: max, then min
                links[k] = min(max(links[k], p_min), p_max)
            a = worst - worst % m  # the raised link's row: links[a : a + m]
            links[a : a + m] = fitted = _fit_list_row(links[a : a + m], p_min, p_max)
            gain[a : a + m] = map(truediv, fitted, loss[a : a + m])
            gain[strongest] = links[strongest] / loss[strongest]
        incoming = [0.0] * n
        for j, g in zip(recv, gain):
            incoming[j] += g
        snr = [g / (incoming[j] - g + noise_w) for j, g in zip(recv, gain)]
        low = min(snr)
        worst, strongest = snr.index(low), snr.index(max(snr))
        if not epoch:
            track = _Progress(low, links, rungs=cfg.rungs)
        elif track.step(low, links):
            break
    return track


def genetic_pa(problem: AllocationProblem, cfg: GeneticConfig | None = None) -> AllocationResult:
    """Real-coded GA over the off-diagonal power vector, fitness = min SNR.

    Tournament selection (size 3), per-gene uniform crossover, per-gene
    mutation that either resamples log-uniformly over [p_min_w, p_max_w]
    or creeps multiplicatively (50/50), elitism of one, and projection onto
    the constraints after every variation.  Deterministic for a fixed seed.

    A chromosome holds the off-diagonal powers in row-major order, so each
    consecutive block of n-1 genes is one vehicle's outgoing row.  What a
    seed reproduces is this draw order.  With P individuals, G genes and
    P // 2 crossover pairs, the generator first draws the initial
    population, P * G log-uniform powers.  Each generation then draws:
      1. the tournament entrants, integers of shape (P, 3);
      2. one block of uniforms, read in order as the crossover gate per
         pair (P // 2), the swap coin per pair and gene (P // 2 * G) and
         the mutate coin per gene (P * G);
      3. for the k genes that mutate, in row-major order, 2k uniforms:
         k reset-or-creep choices, then k reset values, each mapped to
         ln p_min + (ln p_max - ln p_min) * u as Generator.uniform maps it;
      4. k standard normals, the creep steps, scaled by GA_CREEP_SIGMA.
    A gene that does not mutate draws no choice, reset or step, and an odd
    last child is never crossed.  The path loss is the problem's, and the
    work buffers are allocated once per solve.  The elite is _Progress's
    best_at, which is returned and validated once, in _finish.

    It stops by _Progress's rule (window stagnation_limit, any gain real,
    certify_at (1 - GA_CERTIFIED_GAP) times exact's upper bound, from
    _bisect_max_min) or after max_generations.  The certified stop draws
    nothing, so every generation up to it is what a run without it makes.
    """
    cfg = cfg or GeneticConfig()
    params = problem.params
    p_min, p_max = params.p_min_w, params.p_max_w
    n = problem.n
    n_genes = n * (n - 1)
    pop_size = cfg.population_size
    n_pairs = pop_size // 2
    rng = np.random.default_rng(cfg.rng_seed)
    ln_lo = np.log(p_min)
    ln_hi = np.log(p_max)
    ln_span = ln_hi - ln_lo  # Generator.uniform's range
    loss = problem.loss
    # the SNRs are read back gene-major, so the min over genes runs across
    # individuals: far fewer reduce steps than a min along each short row
    gene_major = np.arange(pop_size * n_genes).reshape(pop_size, n_genes).T.reshape(-1)
    # one generation's variation uniforms, sliced in draw order
    u = np.empty(n_pairs + n_pairs * n_genes + pop_size * n_genes)
    cross_u = u[:n_pairs].reshape(n_pairs, 1, 1)
    swap_u = u[n_pairs : n_pairs * (1 + n_genes)].reshape(n_pairs, 1, n_genes)
    mutate_u = u[n_pairs * (1 + n_genes) :]
    first_entrant = 3 * np.arange(pop_size)  # flat index in entrants of each tournament

    def fitness(genes: np.ndarray) -> np.ndarray:
        snr = _snr(loss, genes, params.noise_w)
        return snr.take(gene_major).reshape(n_genes, pop_size).min(axis=0)

    # each individual is held as its (n, n-1) off-diagonal rows
    pop = np.exp(rng.uniform(ln_lo, ln_hi, size=(pop_size, n, n - 1)))
    pop = _project_offdiag_rows(pop, p_min, p_max)
    fit = fitness(pop)
    best_idx = int(fit.argmax())
    certify_at = (1.0 - GA_CERTIFIED_GAP) * _bisect_max_min(problem)[2]
    track = _Progress(float(fit[best_idx]), pop[best_idx], cfg.stagnation_limit, 0.0, certify_at)

    for _ in range(cfg.max_generations):
        if track.reason != "budget":
            break
        # tournament selection, size 3
        entrants = rng.integers(0, pop_size, size=(pop_size, 3))
        winners = entrants.take(first_entrant + fit.take(entrants).argmax(axis=1))
        children = pop.take(winners, axis=0)
        rng.random(out=u)
        # uniform crossover on consecutive pairs: swap the two rows of a
        # (pairs, 2, genes) view wherever the pair's gate and the gene's
        # coin both say so
        swap = (swap_u < 0.5) & (cross_u < GA_CROSSOVER_RATE)
        pairs = children[: 2 * n_pairs].reshape(n_pairs, 2, n_genes)
        children[: 2 * n_pairs] = np.where(swap, pairs[:, ::-1], pairs).reshape(-1, n, n - 1)
        # mutation: log-uniform reset or multiplicative creep, half and half,
        # drawn and evaluated only at the mutated genes
        hit = (mutate_u < GA_MUTATION_RATE).nonzero()[0]
        choice_u, reset_v = rng.random((2, hit.size))
        resets = np.exp(ln_lo + ln_span * reset_v)
        creeps = children.take(hit) * np.exp(GA_CREEP_SIGMA * rng.standard_normal(hit.size))
        children.put(hit, np.where(choice_u < 0.5, resets, creeps))
        children = _project_offdiag_rows(children, p_min, p_max)
        children[0] = track.best_at  # elitism
        pop = children
        fit = fitness(pop)
        gen_best = int(fit.argmax())
        track.step(float(fit[gen_best]), pop[gen_best])

    return _finish(problem, track.best_at, epochs_used=len(track.history) - 1,
                   stop_reason=track.reason, strategy_name="genetic",
                   history=tuple(track.history))


# ---------------------------------------------------------------------------
# exact max-min solver
# ---------------------------------------------------------------------------

def _bisect_max_min(problem: AllocationProblem) -> tuple:
    """exact_pa's solve: the allocation, the number of row tests it ran and
    the bracket's upper end, a min-SNR that no allocation reaches.  The
    bracket narrows to EXACT_REL_TOL relative to its upper end, or to float
    resolution where that is coarser (a subnormal target SNR).

    The row test.  For a target gamma every link needs
    g_ij >= beta * (S_j + N), with g_ij = P_ij / D_ij**alpha its received
    gain, S_j the total gain arriving at receiver j, N the noise and
    beta = gamma / (1 + gamma).  Receiver j's smallest gains are
    g_ij = max(f_ij, c_j), where f_ij is the gain at the per-link floor
    p_min_w and c_j is the least solution of c = beta * (sum_i max(f_ij, c) + N).
    Flooring the k largest f_ij of the column gives the candidate
    beta * (F_k + N) / (1 - (n-1-k) * beta), the fixed point of a function
    that lower-bounds the true one, so c_j is the largest candidate.  That
    point is componentwise minimal, and the budgets only cap sums of powers,
    so gamma is achievable exactly when every row of the minimal powers
    P_ij = max(c_j * D_ij**alpha, p_min_w) fits the budget by the one sum,
    np.add.reduce over the row's n-1 powers.

    The prediction.  Where no floor binds, every receiver's least gain is
    one common c, so sender i pays c * sum_j D_ij**alpha and the largest
    feasible c is p_max_w over the largest row sum of the path loss: the
    SIR-balanced optimum (Zander 1992), gamma = c / (N + (n-2) * c).  Its
    bracket's ends, gamma * (1 -/+ EXACT_REL_TOL / 4), are the search's first
    two probes, where they lie inside the starting bracket.  If the lower
    end passes and the upper end fails, the solve ends after two row tests
    with the certificate a bisection gives: the upper end fails the row test
    and the bracket is within EXACT_REL_TOL of it.  Where a floor binds, the
    prediction overshoots, and the search bisects the bracket the probes
    left; every other probe is a midpoint.

    The starting bracket runs from the even split's objective (achieved)
    to 1/(n-2), which no allocation reaches: the weakest sender into a
    receiver is drowned out by the n-2 others, each at least as strong, so
    its SNR is below g / ((n-2) * g) = 1/(n-2).  The returned allocation is
    the minimal point at the achieved end, or the even split itself if no
    higher target was feasible.  With two vehicles there is no
    interference and the even split (both links at p_max_w) is optimal, so
    its objective is returned as the upper end.
    """
    params = problem.params
    n, p_max, noise_w = problem.n, params.p_max_w, params.noise_w
    best = problem.even_split
    loss = problem.loss
    lo = float(_snr(loss, best, noise_w).min())
    steps = 0
    if n == 2:
        return best, steps, lo
    recv = _receivers(1, n).reshape(n, n - 1)  # receiver j of each link (i, k)
    # column j's floors f_ij (the links into j), largest first; prefix sums
    # F_0 = 0 .. F_{n-2} of the k largest
    into = (params.p_min_w / loss).take(recv.argsort(axis=None)).reshape(n, n - 1)
    cols = -np.sort(-into, axis=1)
    prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(cols[:, :-1], axis=1)], axis=1)
    unfloored = np.arange(n - 1, 0, -1)  # n-1-k for k = 0 .. n-2

    def row_test(gamma: float) -> np.ndarray | None:
        """The minimal powers for target gamma if every row fits the budget."""
        beta = gamma / (1.0 + gamma)
        c = (beta * (prefix + noise_w) / (1.0 - unfloored * beta)).max(axis=1)
        p = np.maximum(c.take(recv) * loss, params.p_min_w)
        return p if (np.add.reduce(p, axis=1) <= p_max).all() else None

    hi = 1.0 / (n - 2)
    # a sum or a minimal power that overflows to inf predicts 0 or fails the
    # row test: infeasible
    with np.errstate(over="ignore"):
        c = p_max / float(np.add.reduce(loss, axis=1).max())
        guess = c / (noise_w + (n - 2) * c)
        a, b = guess * (1.0 - EXACT_REL_TOL / 4), guess * (1.0 + EXACT_REL_TOL / 4)
        probes = [a, b] if lo < a and b < hi else []  # the prediction's two ends
        while probes or hi - lo > EXACT_REL_TOL * hi:
            mid = probes.pop(0) if probes else 0.5 * (lo + hi)
            if not lo < mid < hi:  # a bracket one float step wide, near subnormal
                break
            steps += 1
            p = row_test(mid)
            if p is None:
                hi, probes = mid, []
            else:
                lo, best = mid, p
    return best, steps, hi


def exact_pa(problem: AllocationProblem) -> AllocationResult:
    """Maximum of the worst link's SNR, certified by the row test:
    upper_bound is a min-SNR that no allocation reaches, and
    objective_min_snr lies within EXACT_REL_TOL below it.  epochs_used
    counts the row tests.  _bisect_max_min states the argument.
    """
    best, steps, hi = _bisect_max_min(problem)
    return _finish(problem, best, epochs_used=steps, stop_reason="certified",
                   strategy_name="exact", upper_bound=hi)
