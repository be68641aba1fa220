"""Machine-speed calibration.

On a machine shared with other tenants, the processors run the same work
up to 1.6 times faster or slower from one minute to the next as they come
and go.  A fixed kernel of small-matrix and interpreter work, defined here
and never changed, is timed in short slices from a timer signal, so slices
land inside the program's calls as well as between them.  Each time the
benchmark takes is scaled by ``REFERENCE_S`` over the median slice taken
while it ran: it reads as seconds on a machine where the kernel takes
``REFERENCE_S``, and it moves with the program's own cost, not the
neighbours' load.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.004
EVERY_S = 0.2  # seconds between slices
LEAST = 3  # slices a scale is taken over, at least
_A = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1],
               [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 1.0]])


def kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(200):
        w, v = np.linalg.eigh(_A)
        root = (v * np.sqrt(w)) @ v.T
        acc += float(np.trace(root)) + np.log1p(i)
        table[(i & 15, i >> 4)] = acc
    return acc


class SpeedProbe:
    """Kernel slices taken from a timer signal every ``EVERY_S`` seconds.

    :meth:`clock` leaves the slices' own time out of whatever it times;
    :meth:`factor` gives the scale for a stretch of the run.
    """

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    def _slice(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.slices.append((t0, dt))
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in slices so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median slice taken in ``[start, end]``
        (``perf_counter`` times), widened to the ``LEAST`` nearest slices."""
        inside = [d for t, d in self.slices if start <= t <= end]
        if len(inside) < LEAST:
            mid = (start + end) / 2.0
            nearest = sorted(self.slices, key=lambda s: abs(s[0] - mid))[:LEAST]
            inside = [d for _, d in nearest]
        return REFERENCE_S / statistics.median(inside)
