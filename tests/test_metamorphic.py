"""Metamorphic relations between two solves of the same solver (Chen, Cheung
& Yiu 1998): a transformed scene or channel must give a result that follows
from the first by a stated rule, with no reference solver involved."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
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
from v2vaoi.channel import ChannelParams, DistanceMatrix
from v2vaoi.metrics import scene_seed
from v2vaoi.scenario import ScenarioSpec, generate_scene

PARAMS = ChannelParams()

SOLVERS = {
    "default": default_pa,
    "greedy": lambda problem: greedy_pa(problem, GreedyConfig(max_epochs=300)),
    "exact": exact_pa,
}

# exact's min SNR moves by at most this many units in the last place when
# the vehicles are relabelled.  Bisection certifies only EXACT_REL_TOL, but
# the same targets are tested in another summation order, so the result
# moves by rounding alone: 3 ulps at most over 2500 random relabellings at
# n = 3..16, and 1 ulp in the example below.
RELABEL_ULPS = 4

# greedy's and the even split's min SNR move by at most these shares when
# the vehicles are relabelled: each link's interference is summed in another
# order, which the even split feels once and greedy through 300 epochs.
# Largest measured over 11,600 random relabellings at n = 3..16: 5.8e-14
# for greedy and 6.9e-16 for the even split, under a third of each bound.
GREEDY_RELABEL_RTOL = 2e-13
DEFAULT_RELABEL_RTOL = 2.5e-15


def scene(n: int, seed: int) -> DistanceMatrix:
    dist, _ = generate_scene(ScenarioSpec(n, rng_seed=seed))
    return dist


def relabel(dist: DistanceMatrix, perm_seed: int) -> tuple:
    """A random permutation of the vehicles and the scene relabelled by it."""
    perm = np.random.default_rng(perm_seed).permutation(dist.n)
    return perm, DistanceMatrix(dist.d[np.ix_(perm, perm)])


# 100 derandomized draws, the same examples on every run, about 1.5 s:
# each solves one scene with three solvers at two scales
@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(3, 16), seed=st.integers(0, 2**64 - 1), k=st.integers(-20, 40))
def test_scaling_noise_and_powers_by_a_power_of_two(n, seed, k):
    # noise, floors and budget scaled by 2^k: every power scales by exactly
    # 2^k, a rounding-free change of exponent, and every SNR and delay keeps
    # its bits
    dist, s = scene(n, seed), 2.0**k
    scaled = replace(PARAMS, noise_w=PARAMS.noise_w * s, p_min_w=PARAMS.p_min_w * s,
                     p_max_w=PARAMS.p_max_w * s)
    for name, solver in SOLVERS.items():
        want = solver(AllocationProblem(PARAMS, dist))
        got = solver(AllocationProblem(scaled, dist))
        assert got.power.p.tobytes() == (want.power.p * s).tobytes(), name
        assert got.snr.tobytes() == want.snr.tobytes(), name
        assert got.delay_s.tobytes() == want.delay_s.tobytes(), name
        assert (got.stop_reason, got.epochs_used) == (want.stop_reason, want.epochs_used), name


# 100 derandomized draws, the same examples on every run, about 1.5 s:
# each solves one scene with three solvers, scaled both ways
@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(3, 16), seed=st.integers(0, 2**64 - 1), k=st.integers(-40, 40))
def test_scaling_distances_by_a_power_of_two(n, seed, k):
    # at alpha = 3, distances scaled by 2^k scale every path loss by exactly
    # 2^(3k), so every gain over the noise is that of the unscaled scene
    # over noise scaled by 2^(3k): the same powers, SNRs and delays
    dist = scene(n, seed)
    far = DistanceMatrix(dist.d * 2.0**k)
    noisy = replace(PARAMS, noise_w=PARAMS.noise_w * 2.0 ** (3 * k))
    for name, solver in SOLVERS.items():
        want = solver(AllocationProblem(noisy, dist))
        got = solver(AllocationProblem(PARAMS, far))
        assert got.power.p.tobytes() == want.power.p.tobytes(), name
        assert got.snr.tobytes() == want.snr.tobytes(), name
        assert got.delay_s.tobytes() == want.delay_s.tobytes(), name
        assert (got.stop_reason, got.epochs_used) == (want.stop_reason, want.epochs_used), name


# 200 derandomized draws, about 1 s; the explicit example is a relabelling
# that moves exact's min SNR by 1 ulp
@settings(max_examples=200, deadline=None, derandomize=True)
@example(n=8, seed=scene_seed(3, 9), perm_seed=3)
@given(n=st.integers(3, 16), seed=st.integers(0, 2**64 - 1), perm_seed=st.integers(0, 2**32))
def test_relabelling_the_vehicles(n, seed, perm_seed):
    dist = scene(n, seed)
    _, relabelled = relabel(dist, perm_seed)
    want = exact_pa(AllocationProblem(PARAMS, dist)).objective_min_snr
    got = exact_pa(AllocationProblem(PARAMS, relabelled)).objective_min_snr
    assert abs(got - want) <= RELABEL_ULPS * math.ulp(want)


# 150 derandomized draws, about 2 s; the explicit example is a relabelling
# after which greedy's allocation differs from the permuted one by up to 29%
# a link, while its min SNR moves by 2.7e-15 relative
@settings(max_examples=150, deadline=None, derandomize=True)
@example(n=4, seed=3803700871698140173, perm_seed=884719092)
@given(n=st.integers(3, 16), seed=st.integers(0, 2**64 - 1), perm_seed=st.integers(0, 2**32))
def test_relabelling_the_vehicles_for_greedy_and_the_even_split(n, seed, perm_seed):
    # the even split permutes bit for bit; greedy reaches the same min SNR
    # up to rounding, after as many epochs and by the same stop rule
    dist = scene(n, seed)
    perm, relabelled = relabel(dist, perm_seed)
    for name, rtol in (("default", DEFAULT_RELABEL_RTOL), ("greedy", GREEDY_RELABEL_RTOL)):
        want = SOLVERS[name](AllocationProblem(PARAMS, dist))
        got = SOLVERS[name](AllocationProblem(PARAMS, relabelled))
        assert math.isclose(got.objective_min_snr, want.objective_min_snr, rel_tol=rtol), name
        assert (got.stop_reason, got.epochs_used) == (want.stop_reason, want.epochs_used), name
        if name == "default":
            assert got.power.p.tobytes() == want.power.p[np.ix_(perm, perm)].tobytes()


def floored(n: int, floor: float) -> ChannelParams:
    """PARAMS with p_min_w on a log scale from 1e-12 W (floor = 0) up to the
    budget's limit (floor = 1): the largest p_min_w whose n-1 copies fit
    p_max_w by the one sum, np.add.reduce."""
    limit = PARAMS.p_max_w / (n - 1)
    p_min = limit * (1e-12 / limit) ** (1.0 - floor)
    while np.add.reduce(np.full(n - 1, p_min)) > PARAMS.p_max_w:
        p_min = float(np.nextafter(p_min, 0))
    return replace(PARAMS, p_min_w=p_min)


def optimum(params: ChannelParams, dist: DistanceMatrix) -> float:
    return exact_pa(AllocationProblem(params, dist)).objective_min_snr


# 100 derandomized draws, the same examples on every run, about 1 s: each
# solves one scene four times with exact.  Each relation follows from the
# problem, not the solver: a larger budget or a quieter channel keeps every
# allocation feasible with no less SNR on any link, and so does deleting a
# vehicle's row and column from an optimal allocation.  None needs slack:
# over these draws the optimum rose by at least 1.1e-10 relative under
# x1.5 on p_max and fell by at least 1.2e-11 under x2 on noise, both above
# the bisection's EXACT_REL_TOL of 1e-12.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 64),
    seed=st.integers(0, 2**64 - 1),
    floor=st.floats(0.0, 1.0),
    gone=st.integers(0, 63),
)
def test_exact_optimum_is_monotone(n, seed, floor, gone):
    dist, params = scene(n, seed), floored(n, floor)
    base = optimum(params, dist)
    richer = replace(params, p_max_w=params.p_max_w * 1.5)
    assert optimum(richer, dist) >= base, "x1.5 on p_max lowered the optimum"
    noisier = replace(params, noise_w=params.noise_w * 2)
    assert optimum(noisier, dist) <= base, "x2 on noise raised the optimum"
    keep = np.delete(np.arange(n), gone % n)
    fewer = DistanceMatrix(dist.d[np.ix_(keep, keep)])
    assert optimum(params, fewer) >= base, f"deleting vehicle {gone % n} lowered the optimum"


# 100 derandomized draws, about 1 s: the even split, 30 greedy epochs and
# 10 GA generations, each held to exact's upper bound on the same problem
@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(3, 16), seed=st.integers(0, 2**64 - 1), floor=st.floats(0.0, 1.0))
def test_no_solver_exceeds_exacts_upper_bound(n, seed, floor):
    solvers = {
        "default": default_pa,
        "greedy": lambda problem: greedy_pa(problem, GreedyConfig(max_epochs=30)),
        "genetic": lambda problem: genetic_pa(problem, GeneticConfig(max_generations=10)),
    }
    problem = AllocationProblem(floored(n, floor), scene(n, seed))
    bound = exact_pa(problem).upper_bound
    for name, solver in solvers.items():
        assert solver(problem).objective_min_snr <= bound, name
