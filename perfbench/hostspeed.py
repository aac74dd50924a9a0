"""Host-speed reference for the benchmark's timings.

On a host whose CPUs are shared with other machines, as on the 2-core host
this benchmark was built on, speed swings by up to about 2x within seconds
and from minute to minute, on both CPUs at once.  A wall time alone then
says more about the neighbours than about the program.  While a timed call
runs, ``SpeedProbe`` interrupts it every ``INTERVAL_S`` (``SIGALRM``) and
times a fixed piece of work that belongs to the benchmark, not to the
program: a pure-Python loop followed by a few numpy calls on a small array,
the two kinds of work the solvers do.  A time is reported in *reference
seconds*: the wall time, less the probe's own time, scaled by
``NOMINAL_NS`` over the probe's time at that moment (the mean of the
probe's speeds over the interval, so each moment counts by its length).  A
change to the program moves the reference time; a change in the host's
speed moves the probe's time too and mostly cancels.

Only the main thread may install the handler; the probe runs there, between
the main thread's own bytecodes.  Where the timed call does its work in
other threads or processes (``sweep``), the probe runs beside that work:
there it samples less often and is timed by the main thread's CPU clock, so
that waiting for the GIL or for a free CPU does not count as a slow host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 2000
NUMPY_CALLS = 12
#: One reference second is a second on a host where the probe takes this long.
NOMINAL_NS = 250_000
INTERVAL_S = 0.01
#: Interval when the timed work runs beside the probe, in other threads.
BESIDE_INTERVAL_S = 0.05
#: Samples taken back to back before and after each timed call.
BURST = 5
#: Probe samples this close to an interval also count for its speed, so
#: that a short interval (one outer iteration) has several.
MARGIN_NS = 20_000_000


class SpeedProbe:
    """Samples the probe's work every ``interval_s`` while active; a context
    manager.

    Samples are (start, duration) pairs, the start in ``perf_counter_ns``
    time and kept in order, the duration on the wall clock or, with
    ``cpu_clock``, on the main thread's CPU clock.  A burst is taken on
    entry and on exit, and ``burst()`` takes one on demand, so that any call
    has samples around it.
    """

    def __init__(self, interval_s: float = INTERVAL_S, cpu_clock: bool = False):
        import numpy  # here, so that importing this module leaves threads unpinned

        self._np = numpy
        self._array = numpy.linspace(-1.0, 1.0, 64)
        self.interval_s = interval_s
        self._clock = time.thread_time_ns if cpu_clock else time.perf_counter_ns
        self.starts: list[int] = []
        self.durations: list[int] = []
        self._previous = None
        self._busy = False

    def _work_ns(self) -> int:
        """Time of the probe's fixed work on the probe's clock, in ns."""
        np, a = self._np, self._array
        t0 = self._clock()
        acc = 0.0
        for i in range(LOOP):
            acc += i * 0.5
        for _ in range(NUMPY_CALLS):
            acc += float(np.log1p(np.exp(-np.abs(a))).sum())
        return self._clock() - t0

    def sample(self, *_):
        if self._busy:  # the alarm fired during a sample; skip, keep order
            return
        self._busy = True
        start = time.perf_counter_ns()
        self.durations.append(self._work_ns())
        self.starts.append(start)
        self._busy = False

    def burst(self):
        for _ in range(BURST):
            self.sample()

    def __enter__(self):
        self.burst()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.burst()
        return False

    def _range(self, lo: int, hi: int) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi)

    def overhead_ns(self, lo: int, hi: int) -> int:
        """Probe time spent inside [lo, hi)."""
        i, j = self._range(lo, hi)
        return sum(self.durations[i:j])

    def factor(self, lo: int, hi: int, margin: int = MARGIN_NS) -> float:
        """Reference seconds per net wall second over [lo, hi): the mean of
        NOMINAL_NS / probe time of the samples within ``margin`` of it, or of
        the nearest sample when none are."""
        i, j = self._range(lo - margin, hi + margin)
        if i == j:
            i = min(max(i - 1, 0), len(self.starts) - 1)
            j = i + 1
        return statistics.fmean(NOMINAL_NS / d for d in self.durations[i:j])

    def reference_ns(self, lo: int, hi: int, margin: int = MARGIN_NS) -> float:
        """Interval [lo, hi) in reference ns: wall less probe time, scaled."""
        return (hi - lo - self.overhead_ns(lo, hi)) * self.factor(lo, hi, margin)

    def summary(self) -> dict:
        """Probe times in us, for the provenance record."""
        us = [d / 1e3 for d in self.durations]
        return {"probe_us_median": statistics.median(us), "probe_us_min": min(us),
                "probe_us_max": max(us), "samples": len(us)}
