"""Benchmark workloads: seeded argument lists for the v2vaoi command line.

A workload is a sequence of cycles; a cycle is a short list of CLI calls
holding one scene of each size the workload covers.  Runs stop only at a
cycle boundary.  The first cycles are the fixed prefix, one per master seed
in ``anchors``, in an order drawn from the benchmark seed: every run
completes them, the quality metric and the traced run cover exactly them,
and so the quality metric is the same for every benchmark seed.  Cycles
drawn from the benchmark seed follow, except on compare-default, whose run
is the prefix alone (see COMPARE_ANCHORS).

Latency samples are per cycle: the cycle's time divided by the scenes it
holds, so that every sample has the same mix of sizes.
``tail_percentile`` leaves at least ten samples beyond it in the prefix
alone, where the prefix is long enough for that.
"""

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: tuple  # one small call of the same command, for set-up
    cycle: Callable[[int], list]  # master seed -> argv lists of one cycle
    scenes_per_call: int
    tail_percentile: int
    anchors: tuple  # master seeds of the fixed prefix
    endless: bool = True  # whether seed-drawn cycles follow the prefix

    @property
    def prefix_cycles(self):
        return len(self.anchors)

    def cycles(self, seed):
        """The workload's cycles for a benchmark seed; same seed, same argv."""
        rng = random.Random(seed)
        for master in rng.sample(self.anchors, len(self.anchors)):
            yield self.cycle(master)
        while self.endless:
            yield self.cycle(rng.getrandbits(32))


# Trials per compare call.  Several trials per call keep the cross-trial
# work (aggregation, and any batching of trials) in the measured path; the
# shipped default of 15 trials would leave one or two calls per run.
COMPARE_TRIALS = 3

# The GA stops 500 generations after its last improvement, so one trial
# costs anywhere from 800 to 7000 generations, and a run holds only about
# 20 trials per size.  With independently seeded calls, throughput spread
# 10-16% between seeds, and one extra seeded call after a fixed prefix still
# left 9%.  So every run replays the same seven cycles (7 is the seed of the
# documented compare example); the benchmark seed only orders them.
COMPARE_ANCHORS = (7, 8, 9, 10, 11, 12, 13)

# Greedy epoch budget per solve.  With the shipped budget of 5000 the
# plateau stop ends a solve anywhere between about 1700 and 5000 epochs,
# which makes the cost of a scene vary threefold with the seed; at 1000
# nearly every solve spends its whole budget.
GREEDY_EPOCHS = 1000


def _compare_cycle(master):
    # the shipped compare defaults otherwise (greedy ladder 5000/500/50, GA
    # reference, serial trials); one call per n, which is the work of one
    # `compare --n 3,4,5` call in three, so that the machine speed is
    # sampled between them
    return [
        ["compare", "--n", str(n), "--trials", str(COMPARE_TRIALS), "--jobs", "1",
         "--seed", str(master)]
        for n in (3, 4, 5)
    ]


def _greedy_cycle(master):
    return [
        ["solve", "--strategy", "greedy", "--n", str(n), "--epochs", str(GREEDY_EPOCHS),
         "--seed", str(master)]
        for n in (8, 16, 32, 64)
    ]


def _aoi_cycle(master):
    # a nonzero compute delay makes the rounding draw fire on every link,
    # self-links and the zero-delay mode included; four scenes per cycle
    # so that a burst of neighbouring load on one short call does not make
    # a tail sample on its own
    return [
        ["aoi", "--n", "64", "--epochs", "50", "--compute-delay", "0.05",
         "--seed", str(4 * master + k)]
        for k in range(4)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-default",
            why="the paper's strategy comparison (n = 3,4,5, greedy ladder, GA "
            "reference) over seven fixed scene seeds; the only workload that runs "
            "the GA and batched SNR",
            warmup=("compare", "--n", "3", "--trials", "1", "--epochs", "50",
                    "--generations", "50", "--seed", "0"),
            cycle=_compare_cycle,
            scenes_per_call=COMPARE_TRIALS,
            # seven samples: no percentile above the median has ten beyond
            # it, so the tail falls back to the median
            tail_percentile=50,
            anchors=COMPARE_ANCHORS,
            endless=False,
        ),
        Workload(
            name="greedy-scale",
            why="greedy solve at n = 8..64 on a fixed epoch budget: single-matrix "
            "SNR and projection every epoch, large output; never runs the GA",
            warmup=("solve", "--strategy", "greedy", "--n", "8", "--epochs", "50",
                    "--seed", "0"),
            cycle=_greedy_cycle,
            scenes_per_call=1,
            tail_percentile=75,
            anchors=tuple(range(1, 41)),
        ),
        Workload(
            name="aoi-fleet",
            why="AoI and proxy report at n = 64 over many scenes: the only "
            "workload where the aoi, proxy and scenario modules do real work",
            warmup=("aoi", "--n", "8", "--epochs", "50", "--compute-delay", "0.05",
                    "--seed", "0"),
            cycle=_aoi_cycle,
            scenes_per_call=1,
            tail_percentile=80,
            anchors=tuple(range(1, 51)),
        ),
    )
}
