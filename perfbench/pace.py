"""Host speed, measured by a reference load interleaved with the timed job.

The benchmark host is a few cores of a shared machine, and its speed moves:
by about 15 % between stretches of a few seconds, and by up to 1.5x between
stretches of minutes.  Wall times of the same job move with it.  A reference
load timed before and after a job misses these moves.  Timed every few
milliseconds inside the job, it follows them: over repetitions of a
shortened sequences job, the job's own time varied by 12 % and its ratio to
the mean reference time by 2.3 %.

While a :class:`Pace` is active, a SIGALRM handler runs :func:`reference`
every ``INTERVAL_S`` of wall time and records when each run started and how
long it took.  :meth:`Pace.job_seconds` turns the wall time of an interval
into the job's own time (the reference runs inside the interval taken out)
and into that time at the nominal host speed, where :func:`reference` takes
``NOMINAL_S``.  The reference uses numpy and scipy only, never the package,
so a change to the package cannot move it.
"""
from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np
from scipy.integrate import RK45

# One reference run of about 0.35 ms every 2.5 ms: about 15 % of a
# repetition's wall time.  At 10 ms, an earlier reference found colder caches,
# and its time rose and fell by more than the job's did.
INTERVAL_S = 0.0025
# Typical duration of reference() between the job's steps on the host
# BASELINE.md describes (2 cores of an x86_64 machine), so that scaled times
# read as seconds on that host.
NOMINAL_S = 4.0e-4


def _field(t, y):
    return np.array([y[1], -0.3 * y[1] - y[0] * (1.0 - y[0]) * (y[0] - 0.2)])


def reference() -> None:
    """Three steps of scipy's RK45 on a damped planar oscillator, from the same start.

    This is the machinery of the phase-plane layer: Python-level stepping on
    two-element arrays.  Timed in the same run, it followed the job's speed
    better than banded solves on 2000 points, on desk_run too, whose time is
    in such solves: the job time over the reference time varied by 2.3 %
    (sequences) and 3.4 % (desk_run) from one repetition to the next, against
    5.0 % and 4.0 % for banded solves, and 12 % and 8.5 % for the job time.
    """
    solver = RK45(_field, 0.0, np.array([0.5, 0.0]), 50.0, rtol=1e-10, atol=1e-12)
    for _ in range(3):
        solver.step()


class Pace:
    """Context manager that interleaves :func:`reference` with the code it encloses."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a reference run is dropped
            return
        self._busy = True
        t0 = perf_counter()
        reference()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self) -> "Pace":
        for _ in range(20):  # warm caches and lazy imports before the first tick
            reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, t0: float, t1: float) -> tuple[int, float]:
        """Count and total duration of the reference runs that started in [t0, t1)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return hi - lo, sum(self.durations[lo:hi])

    def job_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """The job's own time in [t0, t1), and that time at the nominal host speed.

        A reference run starts and ends between two bytecodes of the job, so
        every run that started in the interval lies wholly inside it.  With
        no reference run inside the interval, the scaled time is the own time.
        """
        n, total = self.inside(t0, t1)
        own = (t1 - t0) - total
        return own, (own * NOMINAL_S * n / total if n else own)
