"""Interpreter speed probe: scales measured times to a reference speed.

The machine this benchmark was calibrated on (a shared 2-core sandbox)
changes speed by 15-30% over seconds to minutes, because other tenants share
its cores; raw times of the same work spread by about 20% from run to run.
A fixed pure-Python kernel, timed every SAMPLE_S seconds from a SIGALRM
handler while the measured work runs, tracks that speed: work that took t
seconds while the kernel took c seconds on average is reported as
t * REFERENCE_S / c.  Over ten 30-second runs of the ``brackets`` workload
on that machine, this cut the spread of the median job time (quartile
distance over the median) from 18.6% to 3.7%.

The kernel runs no covercount code and runs with the garbage collector
off, so a change to the library moves scaled times as it moves raw ones.
Handler time is excluded from the measured time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

SAMPLE_S = 0.2
REFERENCE_S = 0.003  # kernel time at the reference speed; sets the scale only


def kernel() -> int:
    """A fixed mix of what the library does: rationals, big ints, dicts, sorting."""
    out = 0
    for _ in range(6):
        total = Fraction(0)
        big = 1
        table: dict[int, int] = {}
        for i in range(1, 160):
            total += Fraction(i % 7 + 1, i)
            big = big * 3 + i
            table[i % 61] = big & 0xFFFF
        out += len(sorted(table.values())) + total.denominator % 7 + big % 11
    return out


def sample() -> float:
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the kernel at entry, every SAMPLE_S seconds, and at exit.

    ``overhead`` is the time spent in samples taken from the timer, which
    lies inside the caller's timed region and must be subtracted from it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.overhead += time.perf_counter() - start

    def __enter__(self) -> "Speedometer":
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    def factor(self) -> float:
        """Multiply a time measured under this meter by this to scale it."""
        return REFERENCE_S / statistics.fmean(self.samples)
