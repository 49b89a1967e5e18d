"""Host-speed probe: how fast this machine runs a fixed piece of work
right now.

On a shared virtual machine the speed of one core drifts, by a factor
of up to two within seconds to minutes on the VM this benchmark was
built on, and the CPU-bound workloads drift with it.

* ``probe`` runs the fixed work for half a second.  Every result
  records it just before and just after its workload
  (``host_probe_ms`` in the stamp).
* ``HostClock`` runs a much smaller piece of the same work from a
  timer signal, ten times a second, in the very thread that runs the
  program, so it sees the core at the same moments as the program.
  ``HostClock.reference_s`` turns a wall-clock interval into
  *reference seconds*: each stretch of the interval is weighted by how
  fast the host ran the fixed work then, relative to
  ``REFERENCE_TICK_MS``, and the ticks' own time is left out.  The
  batch and stream workloads report their gated times in reference
  seconds, so that a host that slows down for a while moves them far
  less than it moves the wall clock.

The work is an interpreter loop of integer arithmetic and dict stores
keyed by tuples.  Of the kinds of work tried as the tick (that loop,
list sorting, JSON encoding, small NumPy array operations, small
allocations), the loop alone slowed with the host by as much as a
whole batch run did; every mix with the others under-corrected.  It
imports nothing from the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Any, List, Optional

#: How long one probe runs (s).
WINDOW_S = 0.5
#: Loop iterations of one probe slice (~2 ms).
PROBE_ITERATIONS = 8000


def _slice(iterations: int = PROBE_ITERATIONS) -> float:
    """One fixed piece of work; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        acc += i * i % 7
        table[(i % 300, i & 3)] = acc
    return time.perf_counter() - start


def probe(window_s: float = WINDOW_S) -> float:
    """Median time (ms) of one fixed slice of work, over ``window_s``."""
    times: List[float] = []
    end = time.perf_counter() + window_s
    while time.perf_counter() < end or len(times) < 5:
        times.append(_slice())
    return 1000.0 * statistics.median(times)


#: Loop iterations of one ``HostClock`` tick (0.3–0.6 ms).
TICK_ITERATIONS = 1500
#: Seconds between ``HostClock`` ticks.
TICK_PERIOD_S = 0.1
#: Ticks on either side whose median sets the speed at a tick.
TICK_SMOOTH = 3
#: The tick time (ms) that counts as reference speed: about what the
#: VM the benchmark was built on took when it ran fast.
REFERENCE_TICK_MS = 0.27


class HostClock:
    """Samples the host's speed while the program runs (see the module
    docstring).  Use as a context manager around the measured work,
    then ask ``reference_s`` for intervals inside it."""

    def __init__(self, period_s: float = TICK_PERIOD_S) -> None:
        self.period_s = period_s
        self.starts: List[float] = []
        self.costs: List[float] = []
        self._previous: Any = None
        self._running = False
        self._in_tick = False
        self._speeds: Optional[List[float]] = None

    def _tick(self, signum: int, frame: Any) -> None:
        # A signal due while a tick runs (the process was descheduled
        # for a whole period) is dropped, so ticks never overlap.
        if self._in_tick:
            return
        self._in_tick = True
        start = time.perf_counter()
        _slice(TICK_ITERATIONS)
        self.starts.append(start)
        self.costs.append(time.perf_counter() - start)
        self._in_tick = False

    def start(self) -> None:
        self._tick(0, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        """Stop ticking (once started; a second call does nothing)."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False
        self._tick(0, None)
        self._speeds = None

    def __enter__(self) -> "HostClock":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def speeds(self) -> List[float]:
        """Per tick: reference seconds of work per wall second."""
        if self._speeds is None:
            n, k = len(self.costs), TICK_SMOOTH
            ref = REFERENCE_TICK_MS / 1000.0
            self._speeds = [
                ref / statistics.median(self.costs[max(0, i - k):i + k + 1])
                for i in range(n)
            ]
        return self._speeds

    def reference_s(self, a: float, b: float) -> float:
        """Reference seconds of work in the wall interval ``[a, b]``,
        ticks excluded.  Between two ticks the host is taken to run at
        the mean of their speeds."""
        if not self.starts or not self.starts[0] <= a <= b <= self.starts[-1]:
            raise ValueError("interval outside the clock's ticks")
        speeds = self.speeds()
        total = 0.0
        i = max(0, bisect.bisect_right(self.starts, a) - 1)
        while i < len(self.starts) - 1 and self.starts[i] < b:
            lo = self.starts[i] + self.costs[i]
            hi = self.starts[i + 1]
            overlap = min(hi, b) - max(lo, a)
            if overlap > 0:
                total += overlap * 0.5 * (speeds[i] + speeds[i + 1])
            i += 1
        return total

    def median_speed(self) -> float:
        """Median speed over every tick (1.0 = reference speed)."""
        return statistics.median(self.speeds())
