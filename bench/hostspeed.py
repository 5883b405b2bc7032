"""Host-speed calibration of the timed loop.

A shared virtual machine runs the same Python code at speeds that change by
up to about 1.9x from one millisecond to the next and drift over minutes. On
a 2-vCPU VM the kernel below read 0.36 ms in its fast moments and up to
0.68 ms in its slow ones, and a verify call on F_2^6 read 57-98 ms in
ten-second windows while its ratio to a 9 x 9 version of the kernel run
beside it stayed within 46-49.

The timed loop therefore runs this fixed kernel, exact rational elimination
that does not touch the package, after every operation, and divides each
operation's time by the host's slowdown at that moment: the mean of the four
kernel times nearest to it, two before and two after, over REFERENCE_S. The
scaled times read as milliseconds on a host as fast as the reference; the
raw times go to the summary beside them.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The kernel's time in the fast moments of the 2-vCPU VM described above.
REFERENCE_S = 0.00036


def kernel() -> Fraction:
    """Forward elimination of I + the 6 x 6 Hilbert matrix over Q."""
    n = 6
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a[-1][-1]


def measure() -> float:
    """Seconds of one kernel run, with the collector off so that the
    package's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Raw operation times, each followed by a kernel run."""

    def __init__(self):
        self.kernel_s = [measure()]
        self.raw = []

    def add(self, elapsed: float):
        self.raw.append(elapsed)
        self.kernel_s.append(measure())

    def scaled(self) -> list:
        """The operation times at the reference host speed, in issue order."""
        out = []
        for i, elapsed in enumerate(self.raw):
            # operation i ran between kernel runs i and i + 1
            near = self.kernel_s[max(0, i - 1):i + 3]
            out.append(elapsed * REFERENCE_S * len(near) / sum(near))
        return out
