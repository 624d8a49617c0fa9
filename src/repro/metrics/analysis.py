"""Post-run analysis of a simulated system.

Turns the raw counters of a finished :class:`~repro.sim.system.
MultiCoreSystem` into the summaries an architect actually reads: channel
and bus utilisation, bank-level parallelism, per-core traffic/latency
breakdowns, and a one-screen textual report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.report import bar_chart
from repro.sim.system import MultiCoreSystem
from repro.util.units import gbps

__all__ = ["ChannelUsage", "CoreUsage", "SystemAnalysis", "analyze"]


@dataclass(frozen=True)
class ChannelUsage:
    """Utilisation summary of one logic channel."""

    index: int
    transactions: int
    bus_busy_cycles: int
    utilization: float  # bus-busy fraction of the run
    row_hit_rate: float
    activations: int
    #: transactions per bank, for spotting hotspots
    per_bank: tuple[int, ...]

    @property
    def bank_imbalance(self) -> float:
        """Max/mean transactions per bank (1.0 = perfectly even)."""
        if not self.per_bank or self.transactions == 0:
            return 1.0
        mean = self.transactions / len(self.per_bank)
        return max(self.per_bank) / mean if mean else 1.0


@dataclass(frozen=True)
class CoreUsage:
    """Memory-side summary of one core over its measurement window."""

    core_id: int
    app: str
    ipc: float
    reads: int
    avg_read_latency: float
    bandwidth_gbps: float
    l1_miss_rate: float
    demand_l2_misses: int


@dataclass(frozen=True)
class SystemAnalysis:
    """Everything :func:`analyze` derives from a finished run."""

    end_cycle: int
    total_bandwidth_gbps: float
    channels: tuple[ChannelUsage, ...]
    cores: tuple[CoreUsage, ...]
    drain_entries: int

    def report(self) -> str:
        """Render a one-screen text report."""
        lines = [
            f"run length: {self.end_cycle} cycles "
            f"({self.end_cycle / 3.2e6:.2f} ms at 3.2 GHz)",
            f"aggregate DRAM bandwidth: {self.total_bandwidth_gbps:.2f} GB/s",
            f"write drains entered: {self.drain_entries}",
            "",
            "channels:",
        ]
        for ch in self.channels:
            lines.append(
                f"  ch{ch.index}: {ch.transactions} txns, "
                f"bus util {ch.utilization:.1%}, "
                f"row hits {ch.row_hit_rate:.1%}, "
                f"bank imbalance {ch.bank_imbalance:.2f}x"
            )
        lines.append("")
        lines.append("per-core read latency (cycles):")
        lines.append(
            bar_chart(
                {f"{c.core_id}:{c.app}": c.avg_read_latency for c in self.cores},
                width=30,
                fmt="{:7.0f}",
            )
        )
        lines.append("")
        lines.append("per-core bandwidth (GB/s):")
        lines.append(
            bar_chart(
                {f"{c.core_id}:{c.app}": c.bandwidth_gbps for c in self.cores},
                width=30,
                fmt="{:6.2f}",
            )
        )
        return "\n".join(lines)


def analyze(system: MultiCoreSystem, app_names: list[str] | None = None) -> SystemAnalysis:
    """Summarise a finished :class:`MultiCoreSystem` run."""
    if not system.all_finished:
        raise ValueError("system has not finished; run() it first")
    end = system.end_cycle
    t_burst = system.config.dram_timing.t_burst
    channels = []
    for ch in system.dram.channels:
        busy = ch.transactions * t_burst
        channels.append(
            ChannelUsage(
                index=ch.index,
                transactions=ch.transactions,
                bus_busy_cycles=busy,
                utilization=busy / end if end else 0.0,
                row_hit_rate=(
                    ch.total_row_hits / ch.transactions if ch.transactions else 0.0
                ),
                activations=ch.total_activations,
                per_bank=tuple(a + h for a, h in zip(ch.acts, ch.hits)),
            )
        )
    cores = []
    total_bytes = 0
    for i, core in enumerate(system.cores):
        win = system.window(i)
        total_bytes += win.bytes_total
        name = app_names[i] if app_names else f"core{i}"
        cores.append(
            CoreUsage(
                core_id=i,
                app=name,
                ipc=core.ipc(),
                reads=win.read_count,
                avg_read_latency=win.avg_read_latency,
                bandwidth_gbps=gbps(win.bytes_total, win.cycle),
                l1_miss_rate=system.hierarchy.l1_miss_rate(i),
                demand_l2_misses=system.hierarchy.l2_miss_count(i),
            )
        )
    # Aggregate bandwidth over the whole run (all traffic, full duration).
    st = system.controller.stats
    all_bytes = sum(st.bytes_read) + sum(st.bytes_written)
    return SystemAnalysis(
        end_cycle=end,
        total_bandwidth_gbps=gbps(all_bytes, end),
        channels=tuple(channels),
        cores=tuple(cores),
        drain_entries=st.drain_entries,
    )
