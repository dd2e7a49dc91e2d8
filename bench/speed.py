"""Processor-speed probe for the timed runs.

The shared host this benchmark was tuned on changes speed by up to 1.5x
from one few-second stretch to the next, for the same work in the same
process (see README.md, "Speed probe").  A run's wall time therefore says
as much about the host as about the program.  While a timed run is in
progress, ``SpeedProbe`` wakes every ``INTERVAL`` seconds on SIGALRM and
times one of four fixed kernels, in rotation, in the main thread.  None of
them uses taucubic:

- an integer multiply-and-reduce loop,
- modular arithmetic through a small class with operator methods,
- ``fractions.Fraction`` arithmetic,
- small int64 numpy matrix products mod 101.

A sample's *slowness* is its kernel time over that kernel's reference time
(``REFERENCE_S``).  ``slowness(t0, t1)`` averages the samples taken during
[t0, t1], or the ``MIN_SAMPLES`` nearest ones when the call was shorter,
and a call's wall time divided by it is the time the call would have taken
on a host that runs the kernels in their reference times.  The time spent
inside the probe is counted in ``stolen`` so that callers can take it out
of their wall times.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.1
MIN_SAMPLES = 8


def _int_loop():
    s = 0
    for i in range(30000):
        s = (s * 31 + i) % 1000003
    return s


class _Mod:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return _Mod(self.v + other.v, self.p)

    def __mul__(self, other):
        return _Mod(self.v * other.v, self.p)


_CUBIC_MONOMIALS = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def _mod_objects():
    p = 101
    coeffs = [(m, _Mod(7 * i + 1, p)) for i, m in enumerate(_CUBIC_MONOMIALS)]
    acc = _Mod(0, p)
    for x in range(1, 60):
        point = (_Mod(x, p), _Mod(3 * x + 1, p), _Mod(5 * x + 2, p))
        for exps, c in coeffs:
            term = c
            for coord, e in zip(point, exps):
                for _ in range(e):
                    term = term * coord
            acc = acc + term
    return acc.v


def _fractions():
    acc = Fraction(0)
    for i in range(1, 500):
        acc = (acc + Fraction(i * i + 1, 2 * i + 3)) * Fraction(3, 7)
    return acc


_MATRIX = np.arange(25, dtype=np.int64).reshape(5, 5)


def _numpy_small():
    m = _MATRIX.copy()
    for _ in range(600):
        m = (m @ _MATRIX) % 101
    return int(m[0, 0])


KERNELS = (_int_loop, _mod_objects, _fractions, _numpy_small)
# Median kernel times in seconds on the 2-vCPU host of README.md's reference
# figures; they fix the unit of the rescaled wall times, nothing else.
REFERENCE_S = (0.00339, 0.00230, 0.00578, 0.00231)


class SpeedProbe:
    """Samples the kernels on a timer between ``start()`` and ``stop()``."""

    def __init__(self):
        self.samples = []       # (perf_counter at the end, kernel index, slowness)
        self.stolen = 0.0       # seconds spent inside the probe
        self._tick = 0
        self._previous = None

    def _sample(self, signum, frame):
        entered = time.perf_counter()
        k = self._tick % len(KERNELS)
        self._tick += 1
        t0 = time.perf_counter()
        KERNELS[k]()
        t1 = time.perf_counter()
        self.samples.append((t1, k, (t1 - t0) / REFERENCE_S[k]))
        self.stolen += time.perf_counter() - entered

    def start(self):
        for kernel in KERNELS:      # warm up before the first sample counts
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowness(self, t0, t1):
        """Mean slowness of the samples taken in [t0, t1], or of the
        ``MIN_SAMPLES`` samples nearest to its middle if there are fewer."""
        inside = [s for t, _, s in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:MIN_SAMPLES]
            inside = [s for _, _, s in nearest]
        return statistics.fmean(inside)

    def kernel_medians(self):
        """Median time in seconds of each kernel over the samples (None for a
        kernel that a very short run never reached)."""
        times = [[s * REFERENCE_S[k] for _, j, s in self.samples if j == k]
                 for k in range(len(KERNELS))]
        return [statistics.median(t) if t else None for t in times]
