"""Host-speed probe: samples a fixed kernel while a pass runs.

On a shared virtual machine the same work can take twice as long from one
minute to the next, because other tenants load the physical cores. The
probe times a fixed kernel from a SIGALRM handler 10 times a second and
charges each stretch of work between two samples in units of the kernel
time measured at its end, so a slow stretch is scaled by the host speed of
that stretch, not of the whole pass. The kernel's own time is left out.

The kernel must do the same kind of work as the pass, or it drifts with the
host differently: pure-Python ``Fraction`` elimination for the cone and
reduction layers, numpy array arithmetic for the collinearity scan. On a
shared 2-vCPU Xeon VM whose raw times of a fixed set of ``check_pair``
calls spread by 0.37 (quartile distance over median, 40-call windows over
five minutes), the numpy kernel left a spread of 0.19 and the ``Fraction``
kernel 0.035.
"""

from __future__ import annotations

import contextlib
import random
import signal
import time
from array import array
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.1


class FractionKernel:
    """Gauss-Jordan elimination of a fixed 7 x 11 integer matrix over Fraction."""

    # Kernel time that defines one normalised second: about its time on an
    # unloaded 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4), so normalised
    # seconds read close to wall seconds there.
    NOMINAL_S = 1.4e-3

    def __init__(self) -> None:
        rng = random.Random(20221117)
        self.rows = [[rng.randrange(-3, 4) for _ in range(11)] for _ in range(7)]

    def __call__(self) -> None:
        tab = [[Fraction(v) for v in row] for row in self.rows]
        rank = 0
        for col in range(len(tab[0])):
            pivot = next((i for i in range(rank, len(tab)) if tab[i][col] != 0), None)
            if pivot is None:
                continue
            tab[rank], tab[pivot] = tab[pivot], tab[rank]
            lead = tab[rank][col]
            tab[rank] = [v / lead for v in tab[rank]]
            for i in range(len(tab)):
                if i != rank and tab[i][col] != 0:
                    f = tab[i][col]
                    tab[i] = [a - f * b for a, b in zip(tab[i], tab[rank])]
            rank += 1
            if rank == len(tab):
                break


class NumpyKernel:
    """The arithmetic of one collinearity-scan step on 300 fixed points."""

    NOMINAL_S = 1.9e-4

    def __init__(self) -> None:
        p, n, count = 13, 8, 300
        points = np.arange(count * n, dtype=np.int64).reshape(count, n) % p
        self.powers = p ** np.arange(n, dtype=np.int64)
        self.base = points[0]
        self.steps = np.arange(2, p, dtype=np.int64)[:, None, None]
        self.diff = ((points - self.base) % p)[None, :, :]
        self.p = p
        # Buffers written in place, so the handler allocates next to nothing
        # while the pass's own objects are being allocated and freed.
        self.walked = np.empty((p - 2, count, n), dtype=np.int64)
        self.walked_keys = np.empty((p - 2, count), dtype=np.int64)

    def __call__(self) -> None:
        np.multiply(self.steps, self.diff, out=self.walked)
        np.add(self.walked, self.base, out=self.walked)
        np.remainder(self.walked, self.p, out=self.walked)
        np.matmul(self.walked, self.powers, out=self.walked_keys)


KERNELS = {"fraction": FractionKernel, "numpy": NumpyKernel}


class HostProbe:
    """Context manager that accumulates host-normalised work time while open.

    ``paused()`` leaves a stretch out, for work whose speed one kernel on
    one core cannot describe (a worker pool).
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]()
        self.samples = array("d")
        self.norm_s = 0.0
        self._mark = 0.0

    def _sample(self) -> None:
        # The stretch since the last sample, in units of the kernel time now.
        now = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - now
        self.samples.append(elapsed)
        self.norm_s += (now - self._mark) / elapsed * self.kernel.NOMINAL_S
        self._mark = time.perf_counter()

    def _on_alarm(self, *_) -> None:
        self._sample()

    def _start(self) -> None:
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    @contextlib.contextmanager
    def paused(self):
        self._stop()
        try:
            yield
        finally:
            self._start()
