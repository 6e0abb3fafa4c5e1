"""A CPU clock scaled to a reference host speed.

The shared host this benchmark was tuned on switches between a fast and
a slow level about 1.6x apart, every few seconds to a minute, and CPU
time moves with it. So the timed loop reads this clock instead of CPU
time itself: a profiling timer interrupts the process every
``INTERVAL_S`` of CPU time, and the handler runs a fixed calibration
kernel that does not use circlequad. The CPU time spent since the last
tick is scaled by ``REF_S`` over the mean of the last ``WINDOW`` kernel
times, and the kernel's own time is left out. A reading is therefore the
CPU time the work would have taken on a host where the kernel takes
``REF_S``. A change to circlequad moves it; a change of host speed mostly
does not.

The handler runs in the main thread between bytecodes, so the clock adds
no thread. CPU time is that of the main thread: while a profiling timer
is armed, Linux updates the process CPU clock only at scheduler ticks,
and with BLAS held to one thread the main thread does all the work.
"""

from __future__ import annotations

import cmath
import signal
from collections import deque
from time import thread_time

import numpy as np

INTERVAL_S = 0.05
WINDOW = 4
# the kernel's median time at the fast level of the 2-core host the
# baseline was taken on, so readings there are close to CPU seconds
REF_S = 1.0e-3

_A = np.random.default_rng(0).random((12, 12)) + 12.0 * np.eye(12)
_B = np.random.default_rng(1).random((96, 96))
_ONES = np.ones(12)


def kernel() -> float:
    """Fixed work in the library's mix: Python complex arithmetic, small
    numpy calls and one mid-size matrix product."""
    z, acc = cmath.exp(0.3j), 0.0j
    for k in range(4000):
        acc = acc * z + k
    for _ in range(30):
        x = np.linalg.solve(_A, _ONES)
        acc += np.polyval(x, 0.3j)
    return abs(acc) + float((_B @ _B)[0, 0])


def kernel_seconds(repeat: int = 1) -> list:
    times = []
    for _ in range(repeat):
        t0 = thread_time()
        kernel()
        times.append(thread_time() - t0)
    return times


class RefClock:
    """Use as a context manager; ``now()`` reads reference seconds."""

    def __init__(self):
        self.ticks = 0
        self._samples = deque(kernel_seconds(WINDOW), maxlen=WINDOW)
        self._factor = REF_S * WINDOW / sum(self._samples)
        self._total = 0.0  # reference seconds up to ``_mark``
        self._mark = thread_time()
        self._seq = 0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:  # a tick that fell due while the kernel ran
            return
        self._busy = True
        start = thread_time()
        self._total += (start - self._mark) * self._factor
        kernel()
        end = thread_time()
        self._samples.append(end - start)
        self._factor = REF_S * WINDOW / sum(self._samples)
        self._mark = end
        self.ticks += 1
        self._seq += 1
        self._busy = False

    def now(self) -> float:
        while True:  # read again when a tick landed inside the read
            seq = self._seq
            value = self._total + (thread_time() - self._mark) * self._factor
            if seq == self._seq:
                return value

    def __enter__(self):
        self._mark = thread_time()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
