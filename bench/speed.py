"""Machine speed, for comparing wall times measured minutes apart.

On the shared 2-core test machine a fixed single-threaded computation took
up to 1.5x longer within minutes: when the other core of the pair is busy,
ours runs slower, and other tenants take the processor for a while.  The
loop therefore times a fixed kernel on the wall clock at most every
``EVERY`` seconds, between steps, and an operation's calibrated time is
its wall time times ``KERNEL_REF_S`` over the median of the ``NEAREST``
kernel times taken closest to it.  Single kernel times scatter by a third
from one 20 ms sample to the next, while the machine's speed holds for
seconds at a time, so the median of several samples around an operation
tracks the speed better than the nearest one.  The kernel mixes the three kinds of work the workloads do
(interpreter loops and strings, mpmath and ``Fraction`` arithmetic, numpy
array passes) and uses no igwlab code, so no change to igwlab moves it.  It
runs in one thread between steps, so work that igwlab spreads over several
threads or processes still shows in full in the calibrated times.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

import mpmath as mp
import numpy as np

KERNEL_REF_S = 0.022  # a typical kernel wall time on the test machine; sets the scale only
EVERY = 0.25          # wall seconds between kernel samples
NEAREST = 9           # kernel samples that calibrate one operation

_X = np.random.default_rng(1).random(1 << 15)
_U = np.random.default_rng(2).integers(0, 1 << 62, 1 << 15, dtype=np.uint64)


def _kernel():
    a = 0
    for i in range(20000):
        a += i * i
    ",".join(f"{i}:1.5" for i in range(2000))
    with mp.workprec(400):
        x = mp.mpf(1) / 3
        for _ in range(300):
            x = mp.log(1 + mp.exp(-x)) + mp.mpf(1) / 3
    f = Fraction(1, 3)
    for i in range(60):
        f = f * Fraction(2 * i + 1, i + 2) + Fraction(1, 7)
    for _ in range(4):
        v = _U * np.uint64(0xD2511F53)
        v >>= np.uint64(32)
        np.argsort(_X)
        np.cumsum(_X)


class Speed:
    """Kernel wall times with the wall time at which each was taken."""

    def __init__(self):
        self.at: list = []
        self.wall: list = []

    def sample(self):
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.wall.append(t1 - t0)
        self.at.append(t1)

    def maybe_sample(self):
        if not self.at or perf_counter() - self.at[-1] >= EVERY:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Scale for wall time spent between wall times t0 and t1.

        It uses the ``NEAREST`` kernels taken closest to the middle of the
        interval (fewer if the run took fewer).
        """
        mid = (t0 + t1) / 2
        at = self.at
        lo = hi = bisect.bisect_left(at, mid)
        while hi - lo < NEAREST and (lo > 0 or hi < len(at)):
            if hi == len(at) or (lo > 0 and mid - at[lo - 1] <= at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return KERNEL_REF_S / statistics.median(self.wall[lo:hi])
