"""Host-speed correction for ``wall_s`` and ``setup_s``.

The host this benchmark was defined on is a 2-core KVM guest whose CPU
speed follows other tenants' load: the same pass over a workload takes 3 s
or 5 s depending on the minute.  Raw wall times from such a host differ by
more between two sets of runs than any bound worth having.

While a timed pass runs, ``Sampler`` has a SIGALRM timer interrupt it every
``PERIOD_S`` seconds and time one call of ``kernel``: fixed work (a Python
loop, NumPy passes over 1 MB and CSV-style float formatting into a string
buffer) that does not touch the program.  The pass's wall time, less the
time spent in those calls, is then scaled by ``REFERENCE_S / mean kernel
time``.  A change of host speed slows the pass and the kernel alike and
cancels; a change to the program moves the pass alone and shows in full.
The result is in seconds at the host speed at which one kernel call takes
``REFERENCE_S``.

The kernel lasts about 20 ms.  On the defining host, shorter calls
corrected less of the slowdown (1 ms calls only part of it), probably
because a tick that falls while the vCPU is descheduled runs just after it
resumes, when it is least likely to be descheduled again.

The handler runs in the main thread between bytecodes, so a long NumPy call
delays a tick until it returns; no thread or process is added.

``setup_s`` is scaled the same way by the start-up time of a bare
interpreter, spawned just before each set-up measurement: process start-up
suffers from a busy host more than the kernel does.
"""

from __future__ import annotations

import contextlib
import io
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.5
KERNEL_UNITS = 20
# Mean kernel time inside timed passes on the defining host at a median
# moment; it only fixes the unit of the scaled times.
REFERENCE_S = 0.016
# Median start-up time of a bare interpreter on the defining host.
SPAWN_REFERENCE_S = 0.06

_VEC = np.linspace(0.0, 1.0, 1 << 17)
_OUT = np.empty_like(_VEC)


def kernel() -> float:
    """Fixed reference work; returns its duration in seconds."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_UNITS):
        acc = 0
        for i in range(4000):
            acc += i * i
        np.multiply(_VEC, 1.0001, out=_OUT)
        _OUT.sum()
    buf = io.StringIO()
    xs = [0.1 * i + 1e-7 for i in range(2500)]
    for i, x in enumerate(xs):
        buf.write(f"{x!r},{i},{3.0 * x!r}\n")
    sum({i: x for i, x in enumerate(xs)}.values())
    return time.perf_counter() - t0


class Sampler:
    """Kernel timings taken while a timed pass runs."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the block; the previous SIGALRM handler is back
        and the timer is off afterwards, also after an exception."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, wall: float) -> float:
        """``wall`` (which included the sampling) at reference speed."""
        if not self.samples:         # a pass shorter than one period
            self.samples.append(kernel())
        return (wall - self.spent) * REFERENCE_S / statistics.fmean(self.samples)
