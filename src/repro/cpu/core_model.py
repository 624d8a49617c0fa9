"""Interval-style trace-driven out-of-order core model.

This is the substitution for the paper's M5 cores (DESIGN.md §2).  It keeps
the first-order mechanisms a memory-scheduling study depends on and nothing
else:

* the core fetches/retires ``issue_width`` instructions per cycle when
  nothing stalls it;
* the reorder buffer is a sliding instruction window of ``rob_size``:
  fetch may run at most that far ahead of commit;
* loads enter the window and block commit at the window head until their
  data is ready (L1/L2 hit latency, or a DRAM round trip);
* stores retire without waiting (write-buffer semantics) but still fetch
  their line (write-allocate) and consume MSHRs;
* a full MSHR file or a full controller buffer stalls fetch — that is what
  bounds each core's memory-level parallelism.

Time accounting uses *slot units*: one slot = one instruction issue
opportunity, ``issue_width`` slots per cycle.  Fetch and commit each own a
monotone slot cursor; converting ``slots // issue_width`` yields cycles.
Between memory events the model advances analytically over whole gaps of
non-memory instructions instead of iterating per cycle.  The fetch and
commit loops run in the model kernel's ``CoreKernel`` type (``_core.c``),
which reads the caches' blocks, the trace's columns and the counters
in place (docs/ARCHITECTURE.md, "The model in C"); this module keeps the
constructor and the public surface.

Fidelity approximations (intentional, documented):

* When fetch resumes after a ROB-full or structural stall, its cursor is
  clamped forward to the wake point (the front end loses the cycles it
  was stalled, slightly conservative).
* Each core may run up to ``lookahead`` cycles past the globally committed
  simulation time; requests it emits are future-dated and the controller
  refuses to schedule them early (see ``FastMemoryController._fast_point``),
  so causality holds, while the bound keeps cross-core L2 interleaving
  honest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import CoreConfig
from repro.cpu.kernel import kernel
from repro.cpu.trace import TraceSource
from repro.util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.hierarchy import CacheHierarchy
    from repro.sim.engine import EventEngine

__all__ = ["CoreStats", "TraceCore"]

CoreKernel = kernel.CoreKernel


class CoreStats(Counters):
    """Per-core execution counters, bumped in place by the core kernel."""

    __slots__ = ()
    FIELDS = ("loads", "stores", "l1_hits", "l2_hits", "mem_requests",
              "structural_stalls")

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores


class TraceCore(CoreKernel):
    """One simulated core executing a :class:`TraceSource`.

    The cursors (``fetch_q``, ``commit_q``, ``fetched``, ``committed``,
    ``stall_q``), the crossing cycles, the reorder buffer and the engine
    and hierarchy callbacks live in the C base type (``_core.c``); this
    class validates and binds.

    Parameters
    ----------
    core_id / config / trace / hierarchy / engine:
        Identity, core parameters (Table 1), instruction stream, memory
        path and event engine.
    target_insts:
        Instruction budget: :attr:`finish_cycle` freezes when the
        ``warmup_insts + target_insts``-th instruction commits.  The core
        keeps executing (the paper reloads finished applications so
        contention persists) until externally stopped.
    warmup_insts:
        Instructions committed before measurement starts; the caches and
        queues warm during this window (the SimPoint warmup analogue).
        :attr:`warmup_cycle` freezes at the crossing.
    lookahead:
        Bound, in cycles, on how far this core may run past the global
        simulation time within one activation.
    """

    # The kernel's engine and hierarchy callbacks, named in this class's
    # own namespace so instrumentation can wrap them by name before a
    # machine is built (each core binds them once, in __init__).
    _wake = CoreKernel._wake
    _on_unblock = CoreKernel._on_unblock
    _on_load_ready = CoreKernel._on_load_ready
    _store_data_cb = CoreKernel._store_data_cb

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: TraceSource,
        hierarchy: "CacheHierarchy",
        engine: "EventEngine",
        target_insts: int,
        warmup_insts: int = 0,
        lookahead: int = 256,
    ) -> None:
        config.validate()
        if target_insts < 1:
            raise ValueError("target_insts must be >= 1")
        if warmup_insts < 0:
            raise ValueError("warmup_insts must be >= 0")
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        self.config = config
        self.trace = trace
        self.hierarchy = hierarchy
        self.engine = engine
        self.stats = CoreStats()
        #: span collector for structural-stall stamps (wired by
        #: MultiCoreSystem when the telemetry hub captures spans)
        self.spans = None
        #: optional hooks fired once at each crossing: fn(core)
        self.on_warmup = None
        self.on_finish = None
        self._bind(
            core_id=core_id,
            target_insts=target_insts,
            warmup_insts=warmup_insts,
            lookahead=lookahead,
            issue_width=config.issue_width,
            rob_size=config.rob_size,
            hierarchy=hierarchy,
            # Calls out of the kernel, bound once here.
            columns=trace.columns,
            stream=getattr(trace, "stream", None),
            after_l2_miss=hierarchy._after_l2_miss,
            fill_l1=hierarchy._fill_l1,
            schedule=engine.schedule,
            wake=self._wake,
            on_unblock=self._on_unblock,
            on_load_ready=self._on_load_ready,
            store_data=self._store_data_cb,
        )

    # -- public control --------------------------------------------------------

    def start(self) -> None:
        """Arm the core's first activation at cycle 0."""
        self.engine.schedule(0, self._wake)

    def stop(self) -> None:
        """Freeze the core (end of simulation)."""
        self._stopped = True

    def close(self) -> None:
        """Drop the callbacks that reference this core or its machine (see
        :meth:`~repro.sim.system.MultiCoreSystem.close`)."""
        self._unbind()
        self.on_warmup = self.on_finish = None

    @property
    def finished(self) -> bool:
        """Whether the instruction budget has committed."""
        return self.finish_cycle is not None

    @property
    def rob_occupancy(self) -> int:
        """Instructions currently in flight between fetch and commit."""
        return self.fetched - self.committed

    def ipc(self) -> float:
        """Committed IPC over the measurement window (0 while running)."""
        if self.finish_cycle is None or self.warmup_cycle is None:
            return 0.0
        window = self.finish_cycle - self.warmup_cycle
        if window <= 0:
            return 0.0
        return self.target_insts / window
