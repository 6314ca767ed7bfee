"""How fast the shared host runs right now, from a fixed kernel mix.

On a small shared host the same op's wall time drifts by 20-30% over
tens of seconds as neighbours load the machine, and a fixed numpy kernel
drifts with it.  The benchmark times this kernel mix right after every
timed op and every set-up, and scales the median op and set-up times by
NOMINAL_S over the kernel's median in the same phase: seconds on the host
running at its nominal speed.  The kernel uses no meshwave code, so a
change to meshwave cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median of 40 passes on a quiet 2-vCPU Intel Xeon host, one BLAS thread
NOMINAL_S = 0.03


class HostSpeed:
    """A BLAS part (16 GEMMs shaped like a conv layer's), a memory part
    (two passes over 8 MB) and an interpreter part (a Python loop)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._ops = rng.standard_normal((4, 420, 420))
        self._x = rng.standard_normal((420, 96))
        self._sweep = rng.standard_normal((1000, 1000))
        self.samples: list[float] = []

    def _pass(self):
        acc = sum((self._ops @ self._x).sum() for _ in range(4))
        for _ in range(2):
            lo = self._sweep.min(axis=0)
            acc += ((self._sweep - lo) * 0.5).sum()
        for i in range(100_000):
            acc += i & 7

    def sample(self):
        """Time one pass of the kernel mix, after an untimed pass that
        refills the caches: how much the op before it evicted, which a
        change to meshwave can alter, must not move the sample."""
        self._pass()
        t0 = time.perf_counter()
        self._pass()
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from this host's wall seconds, over the samples taken, to
        nominal seconds."""
        return NOMINAL_S / statistics.median(self.samples)
