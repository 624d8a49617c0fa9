"""The shared event sink every instrumentation producer emits through.

Discrete happenings — a write-drain window opening, one scheduling
decision, one reconstructed DRAM command — are pushed onto one
:class:`TelemetryBus` as :class:`TraceEvent` records.  The decision log
and command log publish here (keeping their own public query APIs), the
write-drain hysteresis publishes here, and the exporters in
:mod:`repro.telemetry.export` consume the single resulting stream; that
is what lets one Chrome trace show scheduling decisions *over* the drain
windows they landed in.  The processes of a distributed sweep publish
their leases, cells and progress on buses of their own, which is what
lets one file schema and one Chrome writer serve runs and the fleet.

Events carry a ``track`` (the Perfetto thread they render on: the
controller, one channel, one core, one fleet worker), a ``cycle`` (the
emitter's clock: simulated CPU cycles in a run, wall-clock microseconds
since the epoch in a fleet process) and a ``kind``:

* ``"instant"`` — a point event;
* ``"begin"`` / ``"end"`` — a span (matched per name+track in order);
* ``"counter"`` — a sample of the numeric values in ``args``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["TraceEvent", "TelemetryBus"]

_KINDS = ("instant", "begin", "end", "counter")


@dataclass(frozen=True)
class TraceEvent:
    """One discrete instrumentation event."""

    name: str
    kind: str  # "instant" | "begin" | "end" | "counter"
    cycle: int
    track: str
    args: dict = field(default_factory=dict)


class TelemetryBus:
    """Append-only event stream with optional live subscribers.

    Subscribers (``fn(event)``) see every event as it is emitted —
    streaming exporters hook in here — while the retained list serves
    post-run export and analysis.  ``retain=False`` turns the bus into a
    pure pipe for long-lived processes (the fleet's coordinator and
    workers) whose events only stream to subscribers.
    """

    __slots__ = ("events", "retain", "_subscribers")

    def __init__(self, retain: bool = True) -> None:
        self.events: list[TraceEvent] = []
        self.retain = retain
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        self._subscribers.append(fn)

    def emit(
        self, name: str, kind: str, cycle: int, track: str, **args
    ) -> None:
        """Publish one event to every consumer."""
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        ev = TraceEvent(name=name, kind=kind, cycle=cycle, track=track, args=args)
        if self.retain:
            self.events.append(ev)
        for fn in self._subscribers:
            fn(ev)

    # -- queries ---------------------------------------------------------------

    def named(self, name: str) -> list[TraceEvent]:
        """All retained events with the given name, in emit order."""
        return [e for e in self.events if e.name == name]

    def spans(self, name: str, end_cycle: int | None = None) -> list[tuple[int, int, str]]:
        """Matched (begin_cycle, end_cycle, track) pairs for ``name``.

        A span still open at the end of the stream is closed at
        ``end_cycle`` when given, else dropped.
        """
        open_at: dict[str, int] = {}
        out: list[tuple[int, int, str]] = []
        for e in self.events:
            if e.name != name:
                continue
            if e.kind == "begin":
                open_at[e.track] = e.cycle
            elif e.kind == "end" and e.track in open_at:
                out.append((open_at.pop(e.track), e.cycle, e.track))
        if end_cycle is not None:
            for track, start in sorted(open_at.items()):
                out.append((start, end_cycle, track))
        return out

    def __len__(self) -> int:
        return len(self.events)
