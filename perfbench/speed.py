"""Machine-speed calibration for the benchmark's timings.

The container this benchmark runs in shares its CPUs: the same job can take
twice as long from one second to the next, and a run's median drifts by
20-30% from one minute to the next.  Every timing is therefore taken next
to a short fixed kernel (a pure-Python loop and small numpy sorts, no
``repro`` code), and reported as

    wall seconds * REFERENCE_S / kernel seconds around the job

that is, seconds at the reference speed.  A change to the program moves
the job time and not the kernel, so it moves the metric in full; a slow
patch of the machine slows both and cancels out.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel seconds at the reference speed: its median on a 2-CPU x86-64
#: container (Python 3.11, numpy 2.4).
REFERENCE_S = 1.8e-3

_DATA = np.random.default_rng(0).random(2048)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i % 7
    data = _DATA
    for _ in range(20):
        data = np.sort(data * 1.0001)
    return time.perf_counter() - start


class Speed:
    """Calibration points between jobs; ``scale`` converts the wall time
    of whatever ran since the previous point into reference seconds."""

    def __init__(self) -> None:
        self.last = kernel_seconds()

    def mark(self) -> None:
        """Calibrate now: the start of a stretch after untimed work."""
        self.last = kernel_seconds()

    def scale(self, seconds: float) -> float:
        """Reference seconds of a stretch that just ended, calibrated by
        the kernel before it and a fresh kernel run after it."""
        before, self.last = self.last, kernel_seconds()
        return seconds * 2.0 * REFERENCE_S / (before + self.last)
