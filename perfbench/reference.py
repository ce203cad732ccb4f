"""Job timing that cancels the drift of a shared CPU.

On a shared machine a CPU's speed drifts by 15-25 % over seconds to
minutes, and interpreter-bound code feels it most.  ``JobClock`` times a job
and, from a timer signal every ``INTERVAL`` seconds, also times one pass of a
fixed reference loop on the same thread.  The job's time divided by the
harmonic mean of the pass times (``solve_ref``) then no longer depends on
how fast the CPU happened to run: with passes at even intervals it is the
sum, over the intervals, of interval seconds over pass seconds, that is the
job's length counted in reference passes at each moment's speed.  A pass
that something slowed down weighs less in it, not more as in a plain mean.
The median is no estimate here: the speed drifts within a job, so the pass
times are spread out in time rather than scattered around one value.

The loop is pure Python of the same kind as the library's searches (a
DSATUR greedy coloring: sets, lists, ``min`` with a key) and does not touch
the library's code.  It does share the job's process and heap, so each pass
runs with the cyclic garbage collector switched off: a collection that the
job's live objects make due falls on the job after the pass, not inside it.
The passes that run inside the job (about 1.5 % of its time) are taken out
of the job's time.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext

INTERVAL = 0.25
_N = 120
_EDGES = 1200


def _graph() -> list[set[int]]:
    rng = random.Random(0x334)
    nbrs: list[set[int]] = [set() for _ in range(_N)]
    for _ in range(_EDGES):
        a, b = rng.randrange(_N), rng.randrange(_N)
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def _dsatur(nbrs: list[set[int]]) -> int:
    n = len(nbrs)
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = min((u for u in range(n) if colors[u] < 0),
                key=lambda u: (-len(sat[u]), -len(nbrs[u]), u))
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for w in nbrs[v]:
            if colors[w] < 0:
                sat[w].add(c)
    return max(colors) + 1


class JobClock:
    """Times one job: wall seconds minus the benchmark's own work inside it
    (``paused()`` sections and reference passes), and the harmonic mean of
    the reference pass seconds while the job ran, one pass taken just before
    and one just after.  ``span`` wraps each pass inside the job, so a tracer
    can keep the passes out of the library's self times."""

    def __init__(self, span=None):
        self._nbrs = _graph()
        self._colors = _dsatur(self._nbrs)
        self._span = span or (lambda name: nullcontext())
        self._active = False
        self._paused = False
        self.samples: list[float] = []
        self.excluded = 0.0
        self.seconds = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _pass(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            colors = _dsatur(self._nbrs)
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if colors != self._colors:
            raise RuntimeError("reference loop gave a different result")
        return dt

    def _tick(self, signum, frame):
        if not self._active:
            return
        with self._span("bench.reference"):
            dt = self._pass()
        self.samples.append(dt)
        if not self._paused:
            self.excluded += dt

    def __enter__(self):
        self.samples = [self._pass()]
        self.excluded = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        self.seconds = elapsed - self.excluded
        self.samples.append(self._pass())

    @contextmanager
    def paused(self):
        """Leave the benchmark's own input transformation out of the job."""
        self._paused = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - t0
            self._paused = False

    @property
    def reference_seconds(self) -> float:
        return statistics.harmonic_mean(self.samples)

    @property
    def reference_spread(self) -> float:
        """Quartile distance of the pass times over their median, so that a
        disturbed reference shows in the run's details."""
        q1, q2, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / q2
