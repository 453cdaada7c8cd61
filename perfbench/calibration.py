"""Machine-speed calibration for a shared, noisy host.

On a shared 2-core VM (Xeon, Python 3.11, numpy 2.4) the same code ran up
to 1.75x slower for stretches of tens of seconds as neighbouring load came
and went, and every stage of the program slowed alike: the time of a
greedy solve divided by the time of the kernel below stayed within about
7% while each alone swung by 40%.

So a short kernel owned by the benchmark (small numpy operations plus
interpreter work, like the program's own mix) is timed after every call,
and a call is scaled by REFERENCE_S over the median kernel time within
WINDOW_S of it.  The median ignores short bursts; the window follows the
slow drifts.  Scaled times read in seconds of a machine on which the kernel
takes REFERENCE_S.  Samples are taken between calls, never during one, so
the program's own behaviour cannot change what the kernel measures.
"""

import bisect
import statistics
import time
from array import array

import numpy as np

# median kernel time on that VM in a quiet period
REFERENCE_S = 0.00025

REPEATS = 5
WINDOW_S = 1.0

_MATRIX = np.random.default_rng(0).random((32, 32))


def kernel():
    a = _MATRIX.copy()
    acc = 0.0
    for i in range(24):
        a = np.clip(a / (a.sum(axis=0) + 1.0) * 1.01, 0.0, 1.0)
        acc += float(a[i % 32, (7 * i) % 32]) + sum(k * i for k in range(16)) * 1e-9
    return acc


class SpeedLog:
    """Kernel timings taken between calls, and the scale they imply."""

    def __init__(self):
        self.at = array("d")  # perf_counter after each sample
        self.took = array("d")

    def sample(self):
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.took.append(statistics.median(times))
        self.at.append(time.perf_counter())

    def scale(self, start, end):
        """Factor from wall to calibrated seconds for work in [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.took[lo:hi])
