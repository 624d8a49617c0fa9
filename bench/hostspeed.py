"""Host-speed probe: a short fixed pure-Python loop timed while an op runs.

The small shared hosts this benchmark targets change speed by 20-70 %
from one second to the next as neighbouring load comes and goes, which
is wider than any useful regression bound.  A short fixed loop in the
simulator's style (integer arithmetic, dict probes, a heap, list stores)
that uses no repository code slows down with the host.

While an op runs, a profiling timer (``ITIMER_PROF``) runs one probe
every ``PERIOD_S`` of CPU time in every process that simulates, and a
few more probes run just before and just after the op.  Each op's host
times, less the probes' own time, are scaled by ``REF_S`` times the mean
of 1 / probe time: they are seconds on a host that runs the probe in
``REF_S``.  The mean of the reciprocals weighs each probe by how much
work the host does per second at that moment, so a probe stretched by a
preemption counts for almost nothing.

A change to the repository moves the op and not the probe, so it moves
the reported time by the same factor as the raw one.  On a 2-vCPU Xeon
VM, twelve repeats of one ``repro run 4MEM-1 HF-RF`` op had an
interquartile range of 6.7 % of the median in raw CPU time, 12.6 % when
scaled by one probe before each simulation, and 1.1 % when scaled by the
timer's probes.

Probe times are wall-clock times: on that VM the process CPU clock does
not advance inside a signal handler.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

__all__ = ["REF_S", "Sampler", "probe", "speed"]

#: median seconds of one :func:`probe` on the reference host (2-vCPU
#: Intel Xeon VM, Python 3.11): the unit every reported host time is in
REF_S = 0.00075
#: process CPU seconds between two timer probes
PERIOD_S = 0.02

_ITERATIONS = 1_000


def probe() -> float:
    """Wall seconds of one pass of the calibration loop.

    The loop allocates no container objects and runs with the garbage
    collector off: a collection would scan whatever the calling process
    holds, and the loop's time would follow that process's heap instead
    of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = 12345
        table: dict[int, int] = {}
        heap: list[int] = []
        ring = [0] * 4096
        for i in range(_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            k = x & 0x3FFF
            table[k] = table.get(k, 0) + 1
            heapq.heappush(heap, (x & 0xFFFF) << 20 | i & 0xFFFFF)
            if len(heap) > 256:
                heapq.heappop(heap)
            ring[i & 4095] ^= x + k
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probe totals of this process: how many, Σ 1/seconds, Σ seconds.

    ``start`` arms the profiling timer, which adds one probe every
    ``PERIOD_S`` of CPU time until ``stop``; ``take`` adds probes now.
    Call ``start`` from the main thread.
    """

    def __init__(self) -> None:
        self.n = 0
        self.inv = 0.0
        self.spent = 0.0

    def _add(self, *_signal) -> None:
        t = probe()
        self.n += 1
        self.inv += 1.0 / t
        self.spent += t

    def take(self, count: int) -> None:
        for _ in range(count):
            self._add()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._add)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def totals(self) -> tuple[int, float, float]:
        return self.n, self.inv, self.spent


def speed(n: float, inv: float) -> float:
    """Reference seconds per host second, from ``n`` probes summing ``inv``."""
    return REF_S * inv / n
