"""Discrete-event engine: a heap plus per-channel controller lanes.

Components schedule ``fn(now, *args)`` callbacks at absolute cycles in the
CPU clock domain; the engine runs them in (cycle, insertion-order) order,
so same-cycle events run in the order they were scheduled — deterministic,
which the reproducibility tests rely on.

Roughly two thirds of a steady-state run's events are two shapes owned by
the memory controller, and neither needs a heap:

* **decision points** — at most one pending per channel at any time (the
  controller's ``_sched_pending`` dedupe guarantees it), so one
  ``(cycle, seq)`` slot per channel suffices;
* **read completions** — per channel these complete in strictly
  increasing ``data_end`` order (the data bus serialises bursts and the
  controller adds a constant overhead), so a FIFO deque per channel is
  already sorted.

The run loop pops the global ``(cycle, seq)`` minimum across the heap
(core wake timers, online-ME window ticks, telemetry sampler ticks), the
decision slots and the completion deques.  Every source draws its sequence
number from one counter and every dispatch counts in ``events_processed``.

Events may be scheduled in the past only up to the current cycle (they are
clamped to ``now``); attempting to go genuinely backwards would mean a
causality bug, and clamping keeps rounding slack from small analytic
models from crashing a run while the invariant `engine.now` never
decreases still holds.  Every clamp is counted in ``clamped_events`` (the
telemetry sampler exposes it as a time series), and ``strict=True`` turns
clamping into :class:`PastEventError` for tests hunting causality bugs.
Decision points are armed at ``max(busy_until, now) >= now`` and
completions at ``data_end + overhead > now``, so the lanes never clamp.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Callable

__all__ = ["EventEngine", "PastEventError"]

#: sentinel cycle for an empty decision slot — beyond any real cycle
_NEVER = 1 << 62


class PastEventError(RuntimeError):
    """A strict-mode engine was asked to schedule before ``now``."""


class EventEngine:
    """Discrete-event scheduler with O(1) lanes for the controller."""

    __slots__ = (
        "now",
        "strict",
        "_heap",
        "_seq",
        "events_processed",
        "clamped_events",
        "stop_requested",
        "_nch",
        "_dec_cycle",
        "_dec_seq",
        "_comps",
        "_point_fn",
        "_deliver_fn",
    )

    def __init__(self, strict: bool = False) -> None:
        self.now: int = 0
        self.strict = strict
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self.events_processed = 0
        #: cooperative stop: a finish hook sets this instead of making the
        #: run loop call a predicate after every event (see MultiCoreSystem)
        self.stop_requested = False
        #: past-cycle schedules clamped to the present (0 in a clean run)
        self.clamped_events = 0
        self._nch = 0
        self._dec_cycle: list[int] = []
        self._dec_seq: list[int] = []
        self._comps: list[deque] = []
        self._point_fn: Callable | None = None
        self._deliver_fn: Callable | None = None

    def attach_channels(
        self,
        num_channels: int,
        point_fn: Callable[[int, int], None],
        deliver_fn: Callable[[int, object], None],
    ) -> None:
        """Register the controller's lane handlers.

        ``point_fn(now, channel)`` dispatches a decision slot;
        ``deliver_fn(now, req)`` dispatches a completion.
        """
        self._nch = num_channels
        self._dec_cycle = [_NEVER] * num_channels
        self._dec_seq = [_NEVER] * num_channels
        self._comps = [deque() for _ in range(num_channels)]
        self._point_fn = point_fn
        self._deliver_fn = deliver_fn

    # -- scheduling ----------------------------------------------------------

    def schedule(self, cycle: int, fn: Callable, *args) -> None:
        """Run ``fn(now, *args)`` at ``cycle`` (clamped to the present)."""
        if cycle <= self.now:
            if cycle < self.now:
                # Count the clamp before a strict-mode raise: the counter
                # is the record of causality violations, and an exception
                # a caller swallows must not make the run look clean.
                self.clamped_events += 1
                if self.strict:
                    raise PastEventError(
                        f"schedule at cycle {cycle} while now={self.now}"
                    )
            cycle = self.now
        heappush(self._heap, (cycle, self._seq, fn, args))
        self._seq += 1

    def kick(self, channel: int, cycle: int) -> None:
        """Arm the (single) decision slot for ``channel`` at ``cycle``.

        The caller guarantees the slot is empty (controller dedupe) and
        ``cycle >= now``.
        """
        self._dec_cycle[channel] = cycle
        self._dec_seq[channel] = self._seq
        self._seq += 1

    def complete(self, channel: int, cycle: int, req) -> None:
        """Append a completion to ``channel``'s FIFO lane.

        Valid because per-channel completion cycles are strictly
        increasing (bus serialisation + constant return overhead).
        """
        self._comps[channel].append((cycle, self._seq, req))
        self._seq += 1

    # -- execution -----------------------------------------------------------

    def run(self, max_events: int | None = None) -> None:
        """Drain events until every lane is empty or a component sets
        :attr:`stop_requested`.

        ``max_events`` is a safety bound: exceeding it raises, because it
        means a livelock bug.

        The merged pop costs a handful of comparisons per event (channel
        counts are tiny) and saves a heap push and pop per decision point
        and completion.
        """
        heap = self._heap
        dec_c = self._dec_cycle
        dec_s = self._dec_seq
        comps = self._comps
        nch = self._nch
        point = self._point_fn
        deliver = self._deliver_fn
        pop = heappop
        never = _NEVER
        bounded = max_events is not None
        start_events = self.events_processed
        # The simulation allocates millions of short-lived containers (ROB
        # entries, waiter lists, request objects); none of them form cycles
        # that must be reclaimed mid-run, so the generational collector's
        # periodic scans are pure overhead — a measurable fraction of a
        # run.  Suspend it for the drain and restore the caller's setting;
        # anything deferred is collected at the next threshold after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if heap:
                    h0 = heap[0]
                    bc = h0[0]
                    bs = h0[1]
                    src = 0
                else:
                    bc = never
                    bs = never
                    src = -1
                ch = 0
                i = 0
                while i < nch:
                    c = dec_c[i]
                    if c < bc or (c == bc and dec_s[i] < bs):
                        bc = c
                        bs = dec_s[i]
                        src = 1
                        ch = i
                    q = comps[i]
                    if q:
                        e = q[0]
                        c = e[0]
                        if c < bc or (c == bc and e[1] < bs):
                            bc = c
                            bs = e[1]
                            src = 2
                            ch = i
                    i += 1
                if src < 0:
                    return
                self.now = bc
                self.events_processed += 1
                if src == 2:
                    deliver(bc, comps[ch].popleft()[2])
                elif src == 1:
                    dec_c[ch] = never
                    dec_s[ch] = never
                    point(bc, ch)
                else:
                    _, _, fn, args = pop(heap)
                    fn(bc, *args)
                if self.stop_requested:
                    return
                if bounded and self.events_processed - start_events > max_events:
                    raise RuntimeError(
                        f"event budget exceeded ({max_events}); livelock suspected"
                    )
        finally:
            if gc_was_enabled:
                gc.enable()

    def close(self) -> None:
        """Drop every pending event and the lane handlers, keeping the
        clock and the counters; the engine cannot run again."""
        self._heap.clear()
        for q in self._comps:
            q.clear()
        self._point_fn = self._deliver_fn = None
