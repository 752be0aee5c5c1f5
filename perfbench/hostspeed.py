"""Host-speed adjustment of the benchmark's timings.

The 2-core host this benchmark was tuned on is shared, and its speed swings
by up to 1.5x over seconds to minutes: a fixed pure-Python loop took 0.24 s
to 0.37 s within one minute, with CPU time tracking wall time.  Whole-run
medians of raw command times then spread by 7-36% across runs; the top of
that range is wider than the largest bound (0.25) a regression check may use.

So each timed piece of work is bracketed by two runs of a fixed probe that
does not touch evostab, and its time is rescaled to the probe's nominal
speed::

    adjusted = measured * PROBE_NOMINAL_S / mean(probe before, probe after)

An adjusted time reads as seconds on a host where the probe takes
PROBE_NOMINAL_S.  A change to the program moves it one to one; a change of
host speed between runs mostly cancels.  The raw times are kept next to the
adjusted ones in each run's samples.
"""
from __future__ import annotations

import time

PROBE_NOMINAL_S = 0.05
_PROBE_ITERATIONS = 600_000


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop (about PROBE_NOMINAL_S)."""
    start = time.perf_counter()
    acc = 0
    for i in range(_PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class Bracketed:
    """Times a callable between two probes.

    ``run(fn)`` returns ``(result, wall s, cpu s, probe s)`` where the probe
    time is the mean of the probes just before and just after ``fn``.
    """

    def __init__(self):
        self._last = probe()

    def run(self, fn):
        before = self._last
        cpu0, start = time.process_time(), time.perf_counter()
        result = fn()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        self._last = probe()
        return result, wall, cpu, 0.5 * (before + self._last)


def adjust(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_NOMINAL_S / probe_s
