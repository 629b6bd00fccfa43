"""Timings corrected for the drift of the host CPU's speed.

On a shared host the speed of a vCPU drifts: the same pure-Python loop
runs up to ~2x slower for seconds to minutes at a time, with process CPU
time equal to wall time (so no time is stolen; the CPU itself is slower).
A 25 s run then measures the phase it fell in as much as the program.

``SpeedProbe`` samples that speed while a run is measured.  Every
``PERIOD_S`` seconds a SIGALRM handler runs ``reference_work``, a fixed
routine of pure-Python arithmetic and small numpy solves that does not
touch geocalc, and records ``REFERENCE_S / (its duration)``: the CPU's
speed relative to the one at which the routine takes ``REFERENCE_S``.
``SpeedProbe.time`` returns an interval's wall time less the time spent in
the handler (``raw``) and that time scaled by the mean speed of the ticks
inside it (``corrected``): the seconds the interval would have taken at
the reference speed.  The probe is a property of the host, so a change to
geocalc moves ``corrected`` exactly as it moves ``raw``.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

PERIOD_S = 0.04
# reference_work runs this many times per tick: the first run after the
# interrupt finds cold caches, the rest do not
REPEATS = 4
# duration of reference_work on the 2-vCPU Xeon box the benchmark was sized
# on, in its fast phase; corrected times there read as fast-phase seconds
REFERENCE_S = 3.0e-4

_A = np.arange(16.0).reshape(4, 4) + 10.0 * np.eye(4)
_B = np.ones(4)
_X = np.linspace(0.0, 1.0, 128).reshape(64, 2)


def _step(i):
    return i * i + 1


def reference_work():
    """Fixed CPU work of the kinds geocalc does: interpreted Python, small
    linear solves, and elementwise work on arrays of a few hundred numbers."""
    s = 0
    for i in range(800):
        s += _step(i)
    for _ in range(10):
        x = np.linalg.solve(_A, _B)
        y = _A @ x
        s += float(np.sqrt(y @ y))
    for _ in range(10):
        t = np.roll(_X, -1, axis=0) - _X
        ell = np.sqrt(np.einsum("ij,ij->i", t, t))
        s += float(((1.0 - ell) ** 2 / ell).sum())
    return s


class SpeedProbe:
    """Samples the CPU's speed on a timer; one instance per measured run."""

    def __init__(self):
        # (ticks, sum of their speeds, seconds spent in the handler), replaced
        # as one tuple so that a reader never sees a half-updated state
        self.state = (0, 0.0, 0.0)
        self.samples = []  # duration of every tick's reference_work

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            reference_work()
        busy_s = time.perf_counter() - t0
        dt = busy_s / REPEATS
        ticks, speed, busy = self.state
        self.state = (ticks + 1, speed + REFERENCE_S / dt, busy + busy_s)
        self.samples.append(dt)

    @contextlib.contextmanager
    def running(self):
        """Tick every PERIOD_S seconds of wall time until the block exits."""
        reference_work()  # warm: the first call pays numpy's lazy set-up
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn, *args):
        """Run fn(*args); returns (result, raw seconds, corrected seconds)."""
        ticks0, speed0, busy0 = self.state
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        ticks1, speed1, busy1 = self.state
        raw = wall - (busy1 - busy0)
        if ticks1 > ticks0:
            speed = (speed1 - speed0) / (ticks1 - ticks0)
        elif ticks1:
            # shorter than one period: the run's mean speed so far
            speed = speed1 / ticks1
        else:
            speed = 1.0
        return result, raw, raw * speed
