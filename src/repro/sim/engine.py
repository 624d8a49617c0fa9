"""Discrete-event engine: a heap plus per-channel controller lanes.

Components schedule ``fn(now, *args)`` callbacks at absolute cycles in the
CPU clock domain; the engine runs them in (cycle, insertion-order) order,
so same-cycle events run in the order they were scheduled — deterministic,
which the reproducibility tests rely on.

Roughly two thirds of a steady-state run's events are two shapes owned by
the memory controller, and neither needs a heap:

* **decision points** — at most one pending per channel at any time (the
  controller dedupes its kicks), so one ``(cycle, seq)`` slot per channel
  suffices;
* **read completions** — per channel these complete in strictly
  increasing ``data_end`` order (the data bus serialises bursts and the
  controller adds a constant overhead), so a FIFO per channel is already
  sorted.

The run loop pops the global ``(cycle, seq)`` minimum across the heap
(core wake timers, online-ME window ticks, telemetry sampler ticks), the
decision slots and the completion lanes.  Every source draws its sequence
number from one counter and every dispatch counts in ``events_processed``.
The heap, the lanes and the loop are the model kernel's ``EngineKernel``
(``cpu/_core.c``); the loop suspends the cycle collector while it drains
and lets a SIGINT through.  Heap events and the lane handlers may be any
Python callables.

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

from repro.cpu.kernel import kernel

__all__ = ["EventEngine", "PastEventError"]

#: raised by a strict-mode engine asked to schedule before ``now``
PastEventError = kernel.PastEventError


class EventEngine(kernel.EngineKernel):
    """Discrete-event scheduler with O(1) lanes for the controller.

    Its methods are the kernel's: ``schedule(cycle, fn, *args)``,
    ``kick(channel, cycle)``, ``complete(channel, cycle, req)``,
    ``attach_channels(n, point_fn, deliver_fn)`` (``point_fn(now,
    channel)`` dispatches a decision slot, ``deliver_fn(now, req)`` a
    completion), ``run(max_events=None)`` — which drains until every
    source is empty or :attr:`stop_requested` is set, and raises past
    ``max_events`` (a livelock) — and ``close()``, which drops every
    pending event and the lane handlers, keeping the clock and the
    counters.
    """

    __slots__ = ()

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
