"""Host-speed reference, so that times from a shared host can be compared.

On a shared two-core host, neighbours slowed the same work by up to half
for stretches of a minute or more; whole 15-second runs landed in slow
stretches, and no statistic of a run's own times could tell them apart
from a real regression.  While a Speedometer is active it runs a fixed
reference kernel every PERIOD_S seconds (on SIGALRM, so long calls are
sampled too) and records how long it took.  A time measured on its clock
is then scaled by REF_NOMINAL_S over the median kernel time just before
and during that interval: seconds on a host where the kernel takes
REF_NOMINAL_S.  The kernel runs only pure-Python int, dict, frozenset,
list and tuple operations like the package's, so neighbours slow it much
as they slow the package, and no change to the package changes it.

The clock excludes time spent in the kernel, so the sampling does not
inflate the times it scales.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

perf = time.perf_counter

# The kernel's time on the quiet development host (Intel Xeon, 2 vCPUs).
REF_NOMINAL_S = 0.006
PERIOD_S = 0.5
# Kernel samples from this many seconds before an interval to its end set its
# scale; looking back only lets a time be scaled as soon as it is taken.
WINDOW_S = 2.0


class Speedometer:
    def __init__(self) -> None:
        rng = random.Random(0)
        sets = [frozenset(rng.sample(range(1, 4097), rng.randint(1, 12))) for _ in range(20_000)]
        self._table = dict(enumerate(sets))
        self._picks = [rng.randrange(len(sets)) for _ in range(4_000)]
        self._counters = [0] * 20_000
        self.spent = 0.0  # seconds spent sampling, kept off the clock
        self.stamps: list[float] = []  # clock reading after each sample
        self.samples: list[float] = []  # kernel time of each sample

    def _kernel(self) -> int:
        acc = 0
        for i in range(6_000):
            acc += i * i & 0xFF
        counters = self._counters
        for i in self._picks:
            members = self._table[i]
            if 7 in members:
                acc += 1
            counters[i] += len(members)
        return acc + len(tuple(min(c, 3) for c in counters))

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf()
        self._kernel()
        t1 = perf()
        self.spent += t1 - t0
        self.stamps.append(t1 - self.spent)
        self.samples.append(t1 - t0)

    def clock(self) -> float:
        """Seconds, not counting the time spent sampling."""
        return perf() - self.spent

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """(end - start) in seconds at the nominal host speed; both are clock readings
        and end is the latest one taken."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        near = self.samples[lo:] or self.samples[-1:]
        return (end - start) * REF_NOMINAL_S / statistics.median(near)
