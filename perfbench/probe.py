"""Host speed probe: a fixed pure-Python kernel timed next to every op.

The benchmark runs on a shared host whose CPUs switch between a fast and a
slow speed, about 2x apart, for stretches of a fraction of a second to
minutes, for reasons outside the benchmark's processes.  Every op is
therefore timed together with this probe, run right before it on the same
CPU, and reported in seconds at the reference speed:

    time at reference speed = measured time * REF_S / probe time

where the probe time is the mean of the probes nearest the op.  Set-up
lasts seconds and the host can change speed within it, so it is probed at
every step (``Clock``).  The probe uses only the standard library:
multiplications of 1000-bit integers (what mpmath's pure-Python backend
spends its time on at high precision) and Fraction arithmetic (interpreter
dispatch and small gcds, as in the exact linear algebra).  No change to
regtor or mpmath can move it.  The measured seconds are printed next to
the normalized ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import monotonic, perf_counter

# About the probe's time on the 2-core Xeon host the benchmark was sized
# on, in its slower and more common speed.  A fixed constant: it sets the
# unit, not the result.
REF_S = 0.004

# Probes on each side of an op whose mean scales it.  Speed stretches often
# last only a few ops; the mean of nearby probes follows the share of time
# spent at each speed.
WINDOW = 3

_A = 3 ** 640 | 1
_B = 7 ** 360 | 1
_FIVE_QUARTERS = Fraction(5, 4)


def probe() -> float:
    """The faster of two runs of the kernel, in seconds.  One run right after
    a child process has exited can take 3x as long; the second one does not."""
    return min(_kernel(), _kernel())


def _kernel() -> float:
    t0 = perf_counter()
    x = _A
    for _ in range(600):
        x = (x * _B >> 1010) | 1
    a, s = Fraction(3, 7), Fraction(0)
    for i in range(1, 200):
        s += a * Fraction(i, i + 3)
        a = a * _FIVE_QUARTERS if i % 2 else a / _FIVE_QUARTERS
    return perf_counter() - t0


def near(probes: list[float], i: int) -> float:
    """Mean of the WINDOW probes before op i (probes[i] ran right before it)
    and the WINDOW after it."""
    return statistics.mean(probes[max(0, i + 1 - WINDOW):i + 1 + WINDOW])


def scale(t: float, probe_s: float) -> float:
    """A measured time in seconds at the reference speed."""
    return t * REF_S / probe_s


class Clock:
    """Time at the reference speed of a stretch of work probed at its steps:
    each interval between two probes is scaled by the mean of the probes at
    its ends."""

    def __init__(self, t0: float, probe_s: float):
        self.t0 = self.t = t0
        self.p = probe_s
        self.ref = 0.0

    def mark(self):
        p = probe()
        now = monotonic()
        self.ref += scale(now - self.t, (self.p + p) / 2)
        self.t, self.p = now, p

    @property
    def measured(self) -> float:
        return self.t - self.t0
