"""Host time in reference seconds.

On the 2-vCPU VM the benchmark was sized on, each core's speed drifts
on its own: a fixed loop's time ranges over +-30% within a minute, and the
two cores differ by up to 50% at the same moment.  Raw wall times cannot
average that away (CALIBRATION.md compares the two), so the benchmark
reports *reference seconds*: wall seconds scaled so that a fixed
pure-Python loop, which shares no code with the simulator, takes
``SAMPLE_S``.

The run pins itself, and so every process it starts, to one core.  Inside
a timed block an interval timer interrupts the driver every
``SAMPLE_EVERY`` seconds to time the loop in thread CPU time.  That holds
whether the driver is simulating or waiting on a child, and thread time
leaves out the core's time on the child.  The block's wall time, minus the
time spent sampling, is scaled by the mean of the samples taken during it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

SAMPLE_ITERATIONS = 25_000
#: The reference loop's duration by definition (about its time on the
#: 2-vCPU VM the benchmark was sized on).
SAMPLE_S = 0.002
SAMPLE_EVERY = 0.05


def reference_sample() -> float:
    """Thread CPU seconds of the reference loop."""
    t0 = time.thread_time()
    acc = 0
    for i in range(SAMPLE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.thread_time() - t0


class Timed:
    """One finished block: ``seconds`` in reference seconds, and the
    ``factor`` from the block's wall seconds to them."""

    seconds: float
    factor: float


class ReferenceClock:
    """Times blocks in reference seconds (main thread only; blocks do not
    nest).

    Attributes:
        spent: wall seconds spent sampling so far; a caller timing part of
            a block itself subtracts the change over that part.
        factors: every finished block's factor.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.factors: list[float] = []
        self._samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._samples.append(reference_sample())
        self.spent += time.perf_counter() - t0

    @contextmanager
    def timed(self):
        """Time the body; the yielded :class:`Timed` is filled on exit."""
        timed = Timed()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        spent = self.spent
        t0 = time.perf_counter()
        try:
            yield timed
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0 - (self.spent - spent)
        if not self._samples:
            self._sample()
        timed.factor = SAMPLE_S * len(self._samples) / sum(self._samples)
        timed.seconds = wall * timed.factor
        self.factors.append(timed.factor)
