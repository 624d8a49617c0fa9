"""Stall-attribution: decompose request spans into additive latency parts.

Each completed :class:`~repro.telemetry.spans.RequestSpan` is split into
seven components, in cycles:

* ``stall``    — structural stall before the request existed (MSHR file
  or controller buffer full; the front end retried until a slot freed);
* ``queue``    — waiting in the controller buffer for the scheduler to
  pick it, excluding write-drain windows;
* ``drain``    — the part of the buffer wait that overlapped an engaged
  write-drain window on the request's controller (reads are blocked
  behind the draining writes then);
* ``bank``     — picked, but the bank was still busy with earlier work;
* ``row``      — row preparation: tRCD on a closed bank, tRP + tRCD on a
  row conflict, plus any tRRD/tFAW activation throttle (0 on a row hit);
* ``bus``      — CAS done, waiting for the shared data bus;
* ``service``  — intrinsic DRAM service: CAS latency + burst transfer,
  plus the controller's fixed return-path overhead for reads.

**Conservation invariant**: the components of a span sum *exactly* (in
integer cycles) to its end-to-end latency ``done - first_attempt``.
:func:`decompose` raises ``ValueError`` if they do not — the invariant
is what makes the breakdown trustworthy as an optimization target.

:func:`attribute` runs the pass over a whole hub and aggregates per
core; :func:`format_attribution` renders the paper-style table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.spans import RequestSpan

__all__ = [
    "COMPONENTS",
    "decompose",
    "drain_windows",
    "CoreBreakdown",
    "AttributionReport",
    "attribute",
    "format_attribution",
]

#: component names, in timeline order
COMPONENTS = ("stall", "queue", "drain", "bank", "row", "bus", "service")


def _overlap(begin: int, end: int, windows: Sequence[tuple[int, int]]) -> int:
    """Total cycles of [begin, end) covered by the (sorted) windows."""
    total = 0
    for w0, w1 in windows:
        if w1 <= begin:
            continue
        if w0 >= end:
            break
        total += min(end, w1) - max(begin, w0)
    return total


def decompose(
    span: "RequestSpan",
    t_cl: int,
    overhead: int = 0,
    windows: Sequence[tuple[int, int]] = (),
) -> dict[str, int]:
    """Split one completed span into its additive latency components.

    ``t_cl`` is the DRAM CAS latency, ``overhead`` the controller
    return-path cycles (applied to reads only — exactly mirroring how
    the controller stamps ``done``), ``windows`` the
    sorted write-drain (begin, end) intervals of the span's controller.
    """
    if not span.complete:
        raise ValueError(f"span not complete: {span!r}")
    stall = span.arrival - span.first_attempt
    drain = _overlap(span.arrival, span.pick, windows)
    queue = (span.pick - span.arrival) - drain
    bank = span.bank_start - span.pick
    row = span.cas - span.bank_start
    bus = span.data_start - (span.cas + t_cl)
    service = t_cl + (span.data_end - span.data_start)
    if span.kind != "write":
        service += overhead
    parts = {
        "stall": stall,
        "queue": queue,
        "drain": drain,
        "bank": bank,
        "row": row,
        "bus": bus,
        "service": service,
    }
    total = sum(parts.values())
    if total != span.latency or min(parts.values()) < 0:
        raise ValueError(
            f"attribution conservation violated for {span!r}: "
            f"components {parts} sum to {total}, latency {span.latency}"
        )
    return parts


def drain_windows(
    telemetry: "Telemetry", end_cycle: int | None = None
) -> dict[str, list[tuple[int, int]]]:
    """Write-drain windows per controller track, from the event bus."""
    out: dict[str, list[tuple[int, int]]] = {}
    spans = telemetry.bus.spans("write_drain", end_cycle=end_cycle)
    for begin, end, track in spans:
        out.setdefault(track, []).append((begin, end))
    for windows in out.values():
        windows.sort()
    return out


@dataclass
class CoreBreakdown:
    """Aggregated latency components for one core."""

    core_id: int
    requests: int = 0
    latency_sum: int = 0
    components: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in COMPONENTS}
    )

    def add(self, parts: dict[str, int], latency: int) -> None:
        self.requests += 1
        self.latency_sum += latency
        for k, v in parts.items():
            self.components[k] += v

    @property
    def avg_latency(self) -> float:
        return self.latency_sum / self.requests if self.requests else 0.0

    def share(self, component: str) -> float:
        """Fraction of this core's total latency spent in ``component``."""
        if self.latency_sum == 0:
            return 0.0
        return self.components[component] / self.latency_sum

    def queue_share(self) -> float:
        """Combined buffered-wait share (queue + drain): the contention
        signal core-aware policies reshape."""
        return self.share("queue") + self.share("drain")


@dataclass
class AttributionReport:
    """Whole-run attribution: one :class:`CoreBreakdown` per core."""

    policy: str
    kind: str
    cores: dict[int, CoreBreakdown]
    spans_seen: int
    spans_used: int

    def core(self, core_id: int) -> CoreBreakdown:
        return self.cores[core_id]

    def totals(self) -> dict[str, int]:
        out = {c: 0 for c in COMPONENTS}
        for b in self.cores.values():
            for k, v in b.components.items():
                out[k] += v
        return out


def attribute(
    telemetry: "Telemetry",
    kind: str = "read",
    spans: Iterable["RequestSpan"] | None = None,
) -> AttributionReport:
    """Run the attribution pass over a hub's collected spans.

    ``kind`` filters which request kinds aggregate ("read" by default —
    the demand-latency decomposition; pass ``"all"`` for everything).
    Every span is still *decomposed* (so the conservation invariant is
    checked run-wide), only aggregation is filtered.
    """
    collector = telemetry.spans
    if collector is None:
        raise ValueError("telemetry hub has no span collector (capture_spans)")
    if collector.timing is None:
        raise ValueError("span collector was never wired to a system")
    t_cl = collector.timing.t_cl
    overhead = collector.overhead
    source = collector.completed if spans is None else list(spans)
    end = max((s.done for s in source), default=None)
    windows = drain_windows(telemetry, end_cycle=end)
    cores: dict[int, CoreBreakdown] = {}
    used = 0
    for span in source:
        parts = decompose(
            span, t_cl, overhead, windows.get(span.track, ())
        )
        if kind != "all" and span.kind != kind:
            continue
        used += 1
        cores.setdefault(span.core_id, CoreBreakdown(span.core_id)).add(
            parts, span.latency
        )
    policy = str(telemetry.meta.get("run", {}).get("policy", "?"))
    return AttributionReport(
        policy=policy,
        kind=kind,
        cores=dict(sorted(cores.items())),
        spans_seen=len(source),
        spans_used=used,
    )


def format_attribution(report: AttributionReport) -> str:
    """Per-core latency-breakdown table (shares of end-to-end latency)."""
    lines = [
        f"latency attribution ({report.kind} requests, policy "
        f"{report.policy}, {report.spans_used}/{report.spans_seen} spans):",
        f"{'core':<5} {'reqs':>6} {'avg lat':>8} "
        + " ".join(f"{c:>8}" for c in COMPONENTS),
    ]
    for b in report.cores.values():
        lines.append(
            f"{b.core_id:<5} {b.requests:>6} {b.avg_latency:>8.1f} "
            + " ".join(f"{b.share(c):>8.1%}" for c in COMPONENTS)
        )
    if not report.cores:
        lines.append("  (no spans collected)")
    return "\n".join(lines)
