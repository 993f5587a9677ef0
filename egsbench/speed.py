"""Machine-speed reference for the timed runs.

The benchmark runs on a few cores of a shared virtual machine whose speed
drifts by tens of percent over seconds to minutes, so a time measured in
one run cannot be compared with one measured a minute later.  Along a run
the benchmark therefore times a fixed calibration loop that never touches
the library, every ``SAMPLE_EVERY_S`` seconds of item time and around every
input build, and rescales each measured time by how fast the loop ran at
that moment:

    reference time = measured time * REFERENCE_S / (median of the nearby loop times)

A reference time is the time the operation would have taken at the speed
at which the loop takes ``REFERENCE_S``: about the usual speed of the 2-core
virtual machine (Intel Xeon, 2.1 GHz) of the figures in README.md.  The loop does integer arithmetic and dictionary lookups on a table
built at import, allocates no container, and runs with the garbage
collector off, so nothing the library leaves behind can land in it.
"""

from __future__ import annotations

import gc
import statistics
import time

LOOPS = 16000
REFERENCE_S = 0.002       # the loop's usual time on the reference machine
SAMPLE_EVERY_S = 0.05     # item time between calibration samples
NEIGHBOURS = 2            # samples on each side that rescale one item
AROUND_BUILD = 3          # samples before and after an input build

_TABLE = {i: i * 7 % 11 for i in range(256)}


def sample() -> float:
    """Seconds taken by one calibration loop."""
    table = _TABLE
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += table[i & 255] * i % 13
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Clock:
    """Calibration samples taken along one run."""

    def __init__(self):
        self.samples: list[float] = []

    def tick(self, count: int = 1) -> None:
        self.samples.extend(sample() for _ in range(count))

    def scale(self, index: int) -> float:
        """Rescaling factor for a time measured right after sample `index`:
        the median of that sample and its neighbours on either side."""
        near = self.samples[max(0, index - NEIGHBOURS + 1): index + NEIGHBOURS + 1]
        return REFERENCE_S / statistics.median(near)

    def timed(self, fn):
        """Run `fn()` between calibration samples; returns its result, the
        measured time and the reference time."""
        self.tick(AROUND_BUILD)
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.tick(AROUND_BUILD)
        near = self.samples[-2 * AROUND_BUILD:]
        return result, elapsed, elapsed * REFERENCE_S / statistics.median(near)
