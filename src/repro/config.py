"""System configuration (the paper's Table 1, as dataclasses).

Every component of the simulator is configured from one
:class:`SystemConfig`.  The defaults reproduce Table 1 of the paper:

* 1/2/4/8 cores, 3.2 GHz, 4-issue, ROB 196
* per-core 64 KB 2-way L1D (3-cycle hit), shared 4 MB 4-way L2
  (15-cycle hit), 64 B lines
* MSHRs: 32 data per core, 64 at the L2
* 2 logic channels x (2 physical channels), 2 DIMMs/physical channel,
  4 banks/DIMM; 800 MT/s, 16 B per logic channel transfer (12.8 GB/s each)
* DDR2 5-5-5: tRP = tRCD = CL = 12.5 ns; 64-entry controller buffer,
  15 ns controller overhead; close-page with cache-line interleaving.

All latencies are stored in CPU cycles (3.2 GHz) — see
:mod:`repro.util.units`, whose ``CPU_FREQ_HZ`` is the one clock.

Table 1 rows the trace-driven model does not simulate have no field: the
L1I (instruction fetch is not modelled), the 32-entry LQ/SQ and the 8
instruction MSHRs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.units import CPU_FREQ_HZ, ns_to_cycles

__all__ = [
    "CoreConfig",
    "CacheConfig",
    "CacheHierarchyConfig",
    "DramTimingConfig",
    "DramTopologyConfig",
    "ControllerConfig",
    "SystemConfig",
]


@dataclass(frozen=True)
class CoreConfig:
    """One processor core (Table 1, rows 'Processor' .. 'Physical register')."""

    issue_width: int = 4
    rob_size: int = 196

    def validate(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.rob_size < 1:
            raise ValueError("rob_size must be >= 1")


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (size/associativity/line/hit latency)."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 1
    #: maximum outstanding misses (MSHR entries) at this cache; at the
    #: L1D, the size of each core's data MSHR file
    mshrs: int = 32

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        return max(sets, 1)

    def validate(self) -> None:
        if self.size_bytes < self.assoc * self.line_bytes:
            raise ValueError(
                f"cache of {self.size_bytes} B cannot hold {self.assoc} ways "
                f"of {self.line_bytes} B lines"
            )
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError("cache size must be a whole number of sets")
        n = self.num_sets
        if n & (n - 1):
            raise ValueError(f"number of sets must be a power of two, got {n}")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.mshrs < 1:
            raise ValueError("mshrs must be >= 1")


@dataclass(frozen=True)
class CacheHierarchyConfig:
    """Per-core L1D + shared L2 (Table 1 cache rows)."""

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=64 * 1024, assoc=2, hit_latency=3, mshrs=32
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=4 * 1024 * 1024, assoc=4, hit_latency=15, mshrs=64
        )
    )

    def validate(self) -> None:
        for c in (self.l1d, self.l2):
            c.validate()
        if self.l1d.line_bytes != self.l2.line_bytes:
            raise ValueError("all cache levels must share one line size")


@dataclass(frozen=True)
class DramTimingConfig:
    """DDR2 timing (Table 1 'DRAM latency' row), in CPU cycles.

    The 5-5-5 part at 800 MT/s gives tRP = tRCD = CL = 12.5 ns, i.e. 40 CPU
    cycles at 3.2 GHz.  A 64 B line moves in 4 transfers of 16 B on a logic
    channel at 800 MT/s -> 5 ns -> 16 CPU cycles.
    """

    t_rp: int = ns_to_cycles(12.5)
    t_rcd: int = ns_to_cycles(12.5)
    t_cl: int = ns_to_cycles(12.5)
    #: data-burst occupancy of the channel for one 64 B line
    t_burst: int = 16
    #: write recovery before precharge after a write burst (tWR ~ 15 ns)
    t_wr: int = ns_to_cycles(15.0)
    #: ACT-to-ACT spacing on one channel (tRRD ~ 7.5 ns); 0 disables.
    #: The paper's simulator does not model it — fidelity extension.
    t_rrd: int = 0
    #: four-activate window (tFAW ~ 37.5 ns); 0 disables
    t_faw: int = 0

    @property
    def row_miss_core_latency(self) -> int:
        """ACT + CAS + burst for a closed-row access (no queueing)."""
        return self.t_rcd + self.t_cl + self.t_burst

    def validate(self) -> None:
        for name in ("t_rp", "t_rcd", "t_cl", "t_burst", "t_wr"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 cycle")
        if self.t_rrd < 0 or self.t_faw < 0:
            raise ValueError("t_rrd/t_faw must be >= 0 (0 disables)")


@dataclass(frozen=True)
class DramTopologyConfig:
    """Channel/DIMM/bank organisation (Table 1 'Memory' row).

    Scheduling and the data bus are per *logic* channel; the two physical
    channels of a logic channel are ganged (that is how the paper gets a
    16 B transfer width).  Banks behind one logic channel:
    ``dimms_per_phys * banks_per_dimm * phys_per_logic``.
    """

    logic_channels: int = 2
    phys_per_logic: int = 2
    dimms_per_phys: int = 2
    banks_per_dimm: int = 4
    row_bytes: int = 8 * 1024

    @property
    def banks_per_channel(self) -> int:
        return self.phys_per_logic * self.dimms_per_phys * self.banks_per_dimm

    @property
    def total_banks(self) -> int:
        return self.logic_channels * self.banks_per_channel

    def validate(self) -> None:
        for name in (
            "logic_channels",
            "phys_per_logic",
            "dimms_per_phys",
            "banks_per_dimm",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.logic_channels & (self.logic_channels - 1):
            raise ValueError("logic_channels must be a power of two")
        if self.banks_per_channel & (self.banks_per_channel - 1):
            raise ValueError("banks per channel must be a power of two")
        if self.row_bytes & (self.row_bytes - 1):
            raise ValueError("row_bytes must be a power of two")


@dataclass(frozen=True)
class ControllerConfig:
    """Memory controller (Table 1 'Memory controller' row + Section 3.2).

    ``buffer_entries`` is the shared request buffer; writes are drained when
    the write queue exceeds ``write_drain_high`` (default half the buffer)
    until it falls below ``write_drain_low`` (default a quarter) — exactly
    the paper's hysteresis.
    """

    buffer_entries: int = 64
    overhead: int = ns_to_cycles(15.0)
    write_drain_high: int = 32
    write_drain_low: int = 16
    #: 'closed' = paper default (controller-managed: keep row open only while
    #: queued hits exist); 'open' keeps rows open until a conflict (ablation)
    page_policy: str = "closed"

    def validate(self) -> None:
        if self.buffer_entries < 1:
            raise ValueError("buffer_entries must be >= 1")
        if not 0 <= self.write_drain_low <= self.write_drain_high <= self.buffer_entries:
            raise ValueError(
                "need 0 <= write_drain_low <= write_drain_high <= buffer_entries"
            )
        if self.page_policy not in ("closed", "open"):
            raise ValueError(f"unknown page_policy {self.page_policy!r}")


#: SystemConfig.digest() results, by the config's repr
_DIGESTS: dict[str, str] = {}


@dataclass(frozen=True)
class SystemConfig:
    """Top-level system: cores + caches + DRAM + controller.

    ``num_cores`` is the only knob the paper varies (1/2/4/8); everything
    else defaults to Table 1.
    """

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    caches: CacheHierarchyConfig = field(default_factory=CacheHierarchyConfig)
    dram_timing: DramTimingConfig = field(default_factory=DramTimingConfig)
    dram_topology: DramTopologyConfig = field(default_factory=DramTopologyConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)

    @property
    def line_bytes(self) -> int:
        return self.caches.l2.line_bytes

    def digest(self) -> str:
        """Short stable hash of every configuration field.

        Two runs with equal digests simulated the same machine; telemetry
        exporters stamp it into their artifact headers so results are
        self-describing.  Computed once per distinct configuration in a
        process (keyed by the repr, which tells apart every value the
        canonical JSON does).
        """
        key = repr(self)
        digest = _DIGESTS.get(key)
        if digest is None:
            import hashlib
            import json
            from dataclasses import asdict

            canonical = json.dumps(asdict(self), sort_keys=True, default=str)
            digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
            if len(_DIGESTS) >= 256:
                _DIGESTS.clear()
            _DIGESTS[key] = digest
        return digest

    def validate(self) -> "SystemConfig":
        """Check cross-component consistency; returns self for chaining."""
        if self.num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.core.validate()
        self.caches.validate()
        self.dram_timing.validate()
        self.dram_topology.validate()
        self.controller.validate()
        return self

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """Copy of this config with a different core count."""
        return replace(self, num_cores=num_cores)

    def summary(self) -> str:
        """Human-readable one-screen rendering (Table 1 analogue)."""
        t = self.dram_timing
        topo = self.dram_topology
        lines = [
            f"cores: {self.num_cores} x {CPU_FREQ_HZ / 1e9:.1f} GHz, "
            f"{self.core.issue_width}-issue, ROB {self.core.rob_size}",
            f"L1D: {self.caches.l1d.size_bytes // 1024} KB "
            f"{self.caches.l1d.assoc}-way, {self.caches.l1d.hit_latency}-cycle hit",
            f"L2 (shared): {self.caches.l2.size_bytes // (1024 * 1024)} MB "
            f"{self.caches.l2.assoc}-way, {self.caches.l2.hit_latency}-cycle hit",
            f"DRAM: {topo.logic_channels} logic channels x "
            f"{topo.banks_per_channel} banks, row {topo.row_bytes} B, "
            f"tRP/tRCD/CL = {t.t_rp}/{t.t_rcd}/{t.t_cl} cycles, "
            f"burst {t.t_burst} cycles",
            f"controller: {self.controller.buffer_entries}-entry buffer, "
            f"overhead {self.controller.overhead} cycles, "
            f"drain {self.controller.write_drain_high}/"
            f"{self.controller.write_drain_low}, "
            f"page policy {self.controller.page_policy}",
        ]
        return "\n".join(lines)
