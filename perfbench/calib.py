"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the speed of one vCPU swings
by up to ~40% between regimes that last from seconds to minutes, depending on
what else runs on the host.  A time divided by the machine's current speed is
steadier than the raw time.  The speed is sampled with a fixed pure-Python
kernel (integer and Fraction arithmetic, list and dict traffic,
~1.4 ms) run on the same CPU
as the measured code:

- ``Sampler`` runs the kernel from a SIGALRM handler every INTERVAL_S while
  the measured body runs, in the same thread, so its samples see the same
  regimes as the body (cost: ~1% of the body);
- ``probe`` runs it a few times back to back, for short measurements such as
  interpreter start-up.

``scale(samples)`` is the mean of NOMINAL_S / kernel time over the samples:
a measured time multiplied by it is the time at the nominal speed.  NOMINAL_S
is the kernel's time in the fast regime of an Intel Xeon vCPU with CPython
3.11; on other hardware the scaled times are in that machine's seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0007
INTERVAL_S = 0.1


def kernel() -> float:
    """Seconds taken by one fixed unit of pure-Python work.  The cyclic
    garbage collector is held off so that the time does not depend on the
    size of the measured program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc, table, items = 1, {}, []
    for i in range(1500):
        acc = (acc * 1103515245 + i) % 2147483647
        table[acc & 255] = i
        items.append(acc >> 3)
    items.sort()
    q = Fraction(1, 3)
    for i in range(1, 40):
        q = q * Fraction(i, i + 2) + Fraction(1, i)
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


def probe(n: int) -> list:
    return [kernel() for _ in range(n)]


def scale(samples: list) -> float:
    return statistics.fmean(NOMINAL_S / s for s in samples) if samples else 1.0


class Sampler:
    """Samples kernel() every INTERVAL_S of wall time between start() and
    stop(); stop() returns the samples, with one probe before and after so
    that short bodies have samples too."""

    def __init__(self):
        self.samples: list = []
        self._old = None

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def start(self) -> None:
        self.samples = probe(3)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples += probe(3)
        return self.samples
