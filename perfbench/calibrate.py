"""Host-speed calibration of the end-to-end timings.

Other tenants of a shared host slow every process on it, by up to about 1.8x
for stretches of a minute or more, so the wall-clock speed of one run says as
much about the neighbours as about the program.  A fixed slice of plain
Python work, independent of monoclose (fractions, small tuples, a dict and a
sort: the kinds of work the library does), is timed next to the measured
work, and each measured time is scaled by ``NOMINAL_S`` divided by the slice's
median time there.  A calibrated time is the time the work would take on a
host where the slice takes ``NOMINAL_S``; a change to monoclose moves it, a
change in the neighbours' load mostly does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.5e-3  # about the slice's time on a quiet core of a 2-vCPU Xeon guest


def _slice():
    x, d = Fraction(1, 3), {}
    for i in range(1, 40):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
        t = (i % 17, i % 13, i % 11, i % 7)
        d[t] = d.get(t, 0) + sum(a * b for a, b in zip(t, t[1:]))
    return sorted(d.items(), key=lambda kv: (kv[1], kv[0]))


def time_slice():
    """Seconds taken by one reference slice, now."""
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def host_factor(slices):
    """How much slower than nominal the host ran, from slice times taken
    next to the measured work: divide a measured time by it to calibrate."""
    return statistics.median(slices) / NOMINAL_S
