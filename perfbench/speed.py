"""Host speed reference: a fixed kernel timed between the measured ops.

Shared 2-vCPU hosts change speed by 20-40% over phases of a minute or
more (neighbouring load), far beyond any bound a regression check could
use; the fastest or median of a run's own samples cannot escape a phase
longer than the run. The kernel below mixes the
kinds of work the program does (Python dict and tuple churn, a scipy
label pass, many small numpy calls) and does the same work on every run.
Timing it between ops gives the host's speed at that moment, and every
time metric is reported at the reference speed:

    reported = measured * REFERENCE_MS / kernel_ms

with ``kernel_ms`` the mean of the kernel timings just before and just
after the measured interval. Over 30 s windows of one op repeated for
200 s this cut the spread (interquartile range over median) from 18%
to 3-5%. Raw timings are printed beside the reported ones.

A fresh process spends its time elsewhere (exec, dynamic loading, module
unmarshalling) and its speed does not follow the kernel's, so cold starts
are scaled by a reference process instead: a fresh interpreter importing
the libraries digitopo is built on, timed right after each cold start.
Over 30 s windows of 5 cold starts this cut the spread from 26% to 4%.

The ``REFERENCE_*`` values are constants of the benchmark, not
measurements: the median kernel and reference-process times on a 2-vCPU
Xeon host, so reported times are close to raw ones there. Changing them
would rescale every time metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

REFERENCE_MS = 15.0
REFERENCE_PROCESS_MS = 680.0
REFERENCE_PROCESS_CODE = "import numpy, scipy.ndimage, scipy.sparse.csgraph"

_GRID = np.random.default_rng(7).random((48, 48, 48)) < 0.3


def _kernel() -> int:
    d = {}
    for i in range(30000):
        d[(i, i & 7)] = i * 3
    total = sum(v for k, v in d.items() if k[1] == 3)
    labels, count = ndimage.label(_GRID)
    for _ in range(200):
        np.nonzero(labels[:8, :8, :8] == 3)
    return total + count


def kernel_ms(repeats: int = 3) -> float:
    """Median time of ``repeats`` kernel runs, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


class Clock:
    """Times intervals and scales them to the reference speed."""

    def __init__(self):
        self.last = kernel_ms()
        self.kernel_samples = [self.last]

    def scale(self, seconds: float) -> float:
        """Seconds of the interval just ended, at the reference speed.

        Call right after the interval: the kernel runs now, and its time is
        averaged with the one taken before the interval.
        """
        now = kernel_ms()
        self.kernel_samples.append(now)
        factor = REFERENCE_MS / ((self.last + now) / 2.0)
        self.last = now
        return seconds * factor
