"""A clock that reads in seconds at a fixed machine speed.

The benchmark runs on a virtual machine whose host is shared, and the speed
at which it runs Python drifts by 20 % and more over seconds to minutes.  A
wall clock then measures the neighbours as much as zonalg.  So, while a
measured region runs, a timer interrupts it every ``PERIOD_S`` and runs a
fixed reference chunk of pure-Python work (``reference``, which uses nothing
of zonalg).  The chunk's duration tells how fast the machine ran just then.
Each stretch of zonalg work between two samples is scaled by
``REF_S / (local chunk time)``, and the time spent in the chunks is left out.
So a scaled duration is the wall time the work would take at the speed at
which a chunk takes ``REF_S`` seconds; a change to zonalg moves it, and a
change of machine speed during the run does not.

    clock = RefClock().start()
    t0 = time.perf_counter(); work(); t1 = time.perf_counter()
    clock.stop()
    seconds = clock.scaled(t0, t1)
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right
from fractions import Fraction

REF_S = 0.020  # nominal duration of one reference chunk, in seconds
REF_ITERS = 2400  # sized so that a chunk takes about REF_S on a 2.1 GHz Xeon
PERIOD_S = 0.2  # a sample every PERIOD_S of wall time
WINDOW = 2  # a stretch is scaled by the median of the WINDOW samples on each side


def reference():
    """Fixed work like zonalg's own: Fraction arithmetic, tuples, a dict."""
    x = 12345
    acc = Fraction(0)
    table = {}
    for i in range(REF_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        f = Fraction(x % 101 - 50, x % 29 + 1)
        acc += f * f
        key = (i % 61, x % 7)
        table[key] = table.get(key, 0) + acc.denominator % 1000
    return acc, len(table)


def sample():
    """Run one reference chunk; return its (start, end) perf_counter times."""
    t0 = time.perf_counter()
    reference()
    return t0, time.perf_counter()


class RefClock:
    def __init__(self):
        self.samples = []  # (start, end) of every reference chunk, in order
        self._busy = False
        self._old = None
        self._factors = None

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(sample())
        finally:
            self._busy = False

    def start(self):
        self._tick()
        self.began = self.samples[0][1]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        return self.fit()

    def fit(self):
        """Compute the scale of every stretch between two samples."""
        durations = [b - a for a, b in self.samples]
        self._factors = [
            REF_S / statistics.median(durations[max(0, k - WINDOW + 1) : k + WINDOW + 1])
            for k in range(len(self.samples) - 1)
        ]
        self._ends = [b for _, b in self.samples]
        self._at = [0.0]  # scaled time at the end of each sample
        for k, f in enumerate(self._factors):
            self._at.append(self._at[-1] + f * (self.samples[k + 1][0] - self.samples[k][1]))
        return self

    def at(self, t):
        """Scaled time of the perf_counter reading ``t``, taken between the
        first and the last sample."""
        k = bisect_right(self._ends, t) - 1
        if k < 0 or k >= len(self._factors):
            raise ValueError("time outside the clock's samples")
        start = self.samples[k][1]
        stop = self.samples[k + 1][0]
        return self._at[k] + self._factors[k] * (min(t, stop) - start)

    def scaled(self, t0, t1):
        """Scaled seconds between two perf_counter readings."""
        return self.at(t1) - self.at(t0)

    def raw(self, t0, t1):
        """Wall seconds between two readings, less the reference chunks run
        between them."""
        inside = sum(
            min(b, t1) - max(a, t0) for a, b in self.samples if b > t0 and a < t1
        )
        return t1 - t0 - inside

    def first_chunk_s(self):
        a, b = self.samples[0]
        return b - a


class WallClock:
    """The plain wall clock, with RefClock's interface: for the traced run,
    which must not be interrupted."""

    samples = ()

    def start(self):
        self.began = time.perf_counter()
        return self

    def stop(self):
        return self

    def first_chunk_s(self):
        return 0.0

    def scaled(self, t0, t1):
        return t1 - t0

    raw = scaled
