"""A clock that reads in seconds at a fixed reference speed.

The benchmark runs on shared machines whose speed drifts: the same
pure-Python loop, timed a few seconds apart, can take half as long again,
and CPU time drifts with wall time.  Wall times taken there are steady
only relative to the machine's speed at that moment.  So, while a pass
runs, a timer signal interrupts it every ``SAMPLE_EVERY_S`` and times one
call of ``reference_work`` (fixed pure-Python work on sets of small
integers, like much of the library's).  The work between two samples is scaled by
``REFERENCE_S`` over the recent sample times, and the sampling itself is
left out.  A reading is therefore the time the work would have taken on a
machine on which ``reference_work`` takes ``REFERENCE_S`` seconds: a
slower library reads higher, a slower moment of the machine does not.

Usage::

    clock = RefClock()
    clock.start()
    t0 = clock.now()
    ...                       # measured work
    elapsed = clock.now() - t0
    clock.stop()

``raw()`` reads plain seconds with the sampling left out, for printing
beside the reference reading.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: seconds one ``reference_work`` call takes at the reference speed
REFERENCE_S = 0.0045
SAMPLE_EVERY_S = 0.05
#: recent samples whose median gives the current speed
WINDOW = 3


def reference_work() -> int:
    """Fixed work shaped like the library's: sets of small integers built,
    merged and sorted.  Its time tracks the library's as the machine's
    speed changes (a tight arithmetic loop sped up and slowed down more
    than the library did)."""
    found: set[int] = set()
    for i in range(1, 2400):
        found |= {i * k for k in range(1, 8)}
        if i % 100 == 0:
            found = set(sorted(found)[:500])
    return len(found)


def sample() -> float:
    """Seconds one ``reference_work`` call takes now."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class RefClock:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._read = 0.0  # reference seconds of work up to self._mark
        self._mark = 0.0  # perf_counter at the end of the last sample
        self._rate = 1.0  # reference seconds per second, now
        self._sampling = 0.0  # seconds spent in samples since start()

    def _take(self) -> None:
        began = perf_counter()
        self.samples.append(sample())
        rate = REFERENCE_S / statistics.median(self.samples[-WINDOW:])
        # the work since the last sample ran between the two speeds
        self._read += (began - self._mark) * (self._rate + rate) / 2
        self._rate = rate
        self._mark = perf_counter()
        self._sampling += self._mark - began

    def start(self) -> None:
        for _ in range(WINDOW):
            self.samples.append(sample())
        self._rate = REFERENCE_S / statistics.median(self.samples)
        self._mark = perf_counter()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._take())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return self._read + (perf_counter() - self._mark) * self._rate

    def raw(self) -> float:
        return perf_counter() - self._sampling

    def to_reference(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference speed (for work
        timed before ``start``, such as the set-up)."""
        return seconds * self._rate
