"""Interpreter-speed calibration.

On a shared host the speed of interpreted Python drifts between regimes
(measured here: about 20 % apart, lasting seconds to tens of seconds, while
compiled code such as hashlib stays within 2 %), so raw host times of two
runs minutes apart differ by more than any change worth detecting. The
benchmark therefore samples a fixed pure-Python workload in the style of
the simulator's inner loop (small immutable vectors, method calls, square
roots, array appends) throughout every measured span and reports the span
scaled to the speed this workload had when the benchmark was defined. The
workload lives here, not in the program, so no change to the program can
speed it up.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from typing import NamedTuple

# typical seconds of one ``sample()`` when the benchmark was defined (2-vCPU
# virtual machine, Python 3.11); it fixes the unit of the reported times
REFERENCE_S = 0.0016
LOOPS = 500
PERIOD_S = 0.1  # sampling period inside a measured span: about 2 % of it


class _V(NamedTuple):
    x: float
    y: float
    z: float

    def add(self, o):
        return _V(self.x + o.x, self.y + o.y, self.z + o.z)

    def scale(self, s):
        return _V(s * self.x, s * self.y, s * self.z)

    def dot(self, o):
        return self.x * o.x + self.y * o.y + self.z * o.z


def _loop(n: int) -> float:
    acc = _V(0.0, 0.0, 0.0)
    axis = _V(0.6, 0.0, 0.8)
    log = array("d")
    for i in range(n):
        v = _V(i * 1e-3, 1.0, -0.5).scale(0.5)
        acc = acc.add(v.scale(1e-3))
        log.append(math.sqrt(acc.dot(acc)) + v.dot(axis))
    return log[-1]


def sample() -> float:
    """Seconds of one run of the fixed workload."""
    t0 = time.perf_counter()
    _loop(LOOPS)
    return time.perf_counter() - t0


def reference_seconds(host_s: float, samples) -> float:
    """``host_s`` scaled to the reference speed, given the samples taken
    over it."""
    return host_s * REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Samples the interpreter speed over a span: once on entry, every
    ``PERIOD_S`` of wall time from a SIGALRM handler, and once on exit. The
    handler's own time is booked in ``overhead_s`` so that the span can be
    reported net of it. ``periodic=False`` keeps only the entry and exit
    samples, for spans whose inner timing must stay undisturbed. Main
    thread only."""

    def __init__(self, periodic: bool = True):
        self.periodic = periodic

    def __enter__(self):
        self.samples = [sample()]
        self.overhead_s = 0.0
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.overhead_s += time.perf_counter() - t0

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        return False
