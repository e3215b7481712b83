"""Speed scaling: seconds of work at a fixed reference speed of the host.

The CPU speed of a shared host drifts by up to 1.7x over minutes, in CPU time
as much as in wall time.  While work is timed, an interval timer interrupts it
every PROBE_PERIOD_S to time the speed kernel, a short pure-Python loop that
slows with the host about as much as the solver does.  Seconds are reported
at the speed where the kernel takes REFERENCE_KERNEL_S.  See README.md.

Only the standard library is imported here, so the set-up probe can use it
without timing any other import.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_PERIOD_S = 0.05
KERNEL_ITERATIONS = 5_000
REFERENCE_KERNEL_S = 3.5e-4


def kernel_seconds() -> float:
    """Seconds the speed kernel takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class Segment:
    """One timed block of work, with the host's speed sampled while it runs.

    A SIGALRM interval timer times the speed kernel every PROBE_PERIOD_S
    during the block, and one more sample follows it, so that a short block
    has one too.  `seconds` is the block's wall time less the samples', and
    `scale` = REFERENCE_KERNEL_S / (mean sample) turns it into seconds at the
    reference speed.  Used from the main thread only.
    """

    def __enter__(self):
        self._samples = []
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._samples.append(kernel_seconds()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        elapsed = time.perf_counter() - self._start  # every sample taken is inside it
        self.seconds = elapsed - sum(self._samples)
        self._samples.append(kernel_seconds())
        self.scale = REFERENCE_KERNEL_S / statistics.fmean(self._samples)
        return False

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale
