"""Host speed probe: scales wall times to a reference machine speed.

Small shared machines drift in speed by tens of percent over minutes,
which would swamp the differences the benchmark is meant to show.  The
probe times a fixed reference kernel (interpreted float arithmetic and
small numpy calls, like the program's hot paths) on a timer signal every
50 ms while the benchmark runs.  A wall time ``t`` is reported as
``t * REFERENCE_S / mean kernel time`` over the same period: the time the
same work would take at the speed where the kernel takes ``REFERENCE_S``.
The kernel's own time is excluded from every interval measured with
``clock``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Kernel time on the machine the benchmark was defined on (2 cores,
# Python 3.11, numpy 2.4); it only fixes the unit of scaled times.
REFERENCE_S = 0.0007
_ROUNDS = 300
_INTERVAL = 0.05


def _kernel() -> float:
    v = np.array([0.3, -1.2, 0.7])
    acc = 0.0
    for i in range(_ROUNDS):
        x = (i * 0.001, 1.0 - i * 0.002, 0.5)
        acc += math.sin(x[0]) * x[1] ** 2 - x[2] * x[0]
        acc += float(v @ np.asarray(x))
    return acc


class SpeedProbe:
    """Context manager that samples the kernel on SIGALRM while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0

    def _sample(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, _INTERVAL, _INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def clock(self) -> float:
        """perf_counter without the time spent in the kernel."""
        return time.perf_counter() - self._spent

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference speed over the speed measured since ``mark()`` returned
        ``since`` (and the sample before); multiplies wall times."""
        return REFERENCE_S / statistics.mean(self.samples[max(since - 1, 0):])
