"""Machine-speed probe: times measured on a drifting machine, scaled to a
reference speed.

The machine the bounds were set on (2 vCPUs of an Intel Xeon under KVM, no
hardware performance counters) switches between a fast and a slow state
that differ by about 1.7x, every few seconds, and the share of time it spends
slow drifts over minutes. Raw pipeline times then spread by 15-30 % between
runs of the same code.

While a measured interval runs, a timer signal runs a fixed reference kernel
every INTERVAL_S. The kernel mixes array reductions, small matrix products and
interpreter work, like the pipeline's mix of numpy calls and Python code; it
costs about 0.3 % of the interval. An interval's scaled time is its raw time
multiplied by REFERENCE_KERNEL_S / (mean kernel time inside the interval):
the time it would have taken at the reference speed. The handler runs between bytecodes of the
main thread, never inside a native call, and touches no program state.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
REFERENCE_KERNEL_S = 200e-6  # kernel time inside a pipeline run, fast state, machine above


class SpeedProbe:
    """``with probe:`` samples the kernel; ``factor()`` gives the scale."""

    def __init__(self):
        self._array = np.ones(32768)
        self._small = np.ones((3, 3))
        self.samples: list = []
        self._previous = None

    def kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(10):
            self._array.sum()
            self._small @ self._small
        x = 0
        for i in range(400):
            x += i * i
        return time.perf_counter() - t0

    def _on_timer(self, signum, frame):
        self.samples.append(self.kernel())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, fallback: float) -> float:
        """REFERENCE_KERNEL_S / mean kernel time of the last interval, or
        the fallback when the interval took no sample (shorter than
        INTERVAL_S, or spent inside one native call)."""
        if not self.samples:
            return fallback
        return REFERENCE_KERNEL_S * len(self.samples) / sum(self.samples)
