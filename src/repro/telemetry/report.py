"""Terminal summary of a telemetry capture.

Renders the run the way EXPERIMENTS.md renders figures — ASCII bar
charts from :mod:`repro.metrics.report` — so ``repro run --telemetry``
can explain where bandwidth went without leaving the terminal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.report import bar_chart

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = ["render_summary"]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def render_summary(telemetry: "Telemetry") -> str:
    """One-screen text summary of the sampled series and event stream."""
    samples = telemetry.samples
    if not samples:
        return "telemetry: no samples captured"
    totals = telemetry.totals()
    cycles = totals["cycles"]
    lines = [
        f"telemetry: {len(samples)} samples over {cycles} cycles "
        f"(epoch {telemetry.sample_every}), {len(telemetry.bus.events)} events",
    ]
    if totals["clamped_events"]:
        lines.append(f"  clamped past-cycle events: {totals['clamped_events']}")

    # Per-channel: time-weighted mean bandwidth and utilisation.
    bw = {}
    for c in samples[0].channels:
        i = c.index
        bw[f"ch{i} GB/s"] = sum(
            s.channels[i].bw_gbps * s.span for s in samples
        ) / cycles
    lines.append("\nchannel bandwidth (run average):")
    lines.append(bar_chart(bw, width=30))
    util = {}
    for c in samples[0].channels:
        i = c.index
        util[f"ch{i} util"] = sum(
            s.channels[i].bus_util * s.span for s in samples
        ) / cycles
    lines.append("data-bus utilisation:")
    lines.append(bar_chart(util, width=30, fmt="{:.1%}"))
    lines.append(f"row-hit rate: {totals['row_hit_rate']:.1%}")

    # Queue depths and drain residency.
    lines.append(
        f"queue depth (mean at epoch ticks): "
        f"reads={_mean([float(s.read_queue) for s in samples]):.1f} "
        f"writes={_mean([float(s.write_queue) for s in samples]):.1f}"
    )
    drain = sum(s.span for s in samples if s.drain_mode)
    lines.append(f"write-drain engaged at {drain / cycles:.1%} of epoch ticks")

    # Per-core pressure.
    stall = {}
    for c in samples[0].cores:
        i = c.index
        stall[f"core{i} stall"] = sum(
            s.cores[i].rob_stall_frac * s.span for s in samples
        ) / cycles
    lines.append("\nROB head-load stall fraction:")
    lines.append(bar_chart(stall, width=30, fmt="{:.1%}"))
    pend = {}
    for c in samples[0].cores:
        i = c.index
        pend[f"core{i} pend-rd"] = _mean(
            [float(s.cores[i].pending_reads) for s in samples]
        )
    lines.append("pending demand reads (mean):")
    lines.append(bar_chart(pend, width=30, fmt="{:.2f}"))
    return "\n".join(lines)
