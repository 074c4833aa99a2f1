"""Correct timings for the drifting speed of a shared machine.

On a shared 2-core x86-64 VM running Python 3.11, the same pure-Python
Fraction loop ran anywhere from 40 to 80 ms within a few minutes, on either
core, with CPU time tracking wall time and no steal: the host, not this
process, sets the pace.  Same-seed runs of one workload moved by 20 to 40%
in wall time, far beyond any useful bound.

So the benchmark samples the machine's speed while it times: a fixed
exact-rational calibration loop, sharing no code with cantorval, runs just
before and just after every timed region and, from a timer signal, every
``INTERVAL_S`` inside it.  The signal handler's own time is taken out of the
region's time.  A region's corrected time is its wall time scaled by
``REFERENCE_S`` over the mean calibration time sampled across it, that is,
seconds on a machine where the calibration takes ``REFERENCE_S``.  Nothing in
cantorval can change the calibration, so a faster program still shows as
proportionally fewer corrected seconds.  Raw wall times are printed in the
run record beside the corrected ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.003
INTERVAL_S = 0.1

_VALUES = [Fraction(i, 7 + i % 5) for i in range(1, 31)]


def calibrate() -> float:
    """Seconds taken by a fixed Fraction add, hash and sort workload."""
    start = time.perf_counter()
    acc: dict[Fraction, int] = {}
    for u in _VALUES:
        for v in _VALUES[:20]:
            key = u + v
            acc[key] = acc.get(key, 0) + 1
    sorted(acc)
    return time.perf_counter() - start


class Region:
    """Times one region and samples the machine's speed across it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self.raw = 0.0
        self._start = 0.0

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.samples.append(calibrate())
        self.paused += time.perf_counter() - entered

    def __enter__(self) -> "Region":
        self.samples.append(calibrate())
        previous = signal.signal(signal.SIGALRM, self._tick)
        if previous not in (signal.SIG_DFL, signal.SIG_IGN, None):
            raise RuntimeError("SIGALRM is already in use")
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = time.perf_counter() - self._start - self.paused
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(calibrate())

    @property
    def factor(self) -> float:
        """Multiplier from wall seconds to corrected seconds."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    @property
    def corrected(self) -> float:
        return self.raw * self.factor
