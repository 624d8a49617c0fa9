"""Per-core L1D caches over a shared L2, wired to the memory controller.

The hierarchy is the glue between the trace-driven cores and the DRAM
substrate:

* L1 hit           -> core sees the L1 hit latency;
* L1 miss, L2 hit  -> core sees L1 + L2 latency;
* L2 miss          -> an MSHR is allocated (or the miss merges onto an
  in-flight line) and a read :class:`MemoryRequest` goes to the controller;
  the core's waiter callback fires when data returns;
* dirty evictions  -> writeback requests (attributed to the line's owner
  core so bandwidth accounting stays per-application);
* structural stalls -> a full MSHR file or controller buffer returns
  :data:`BLOCKED`; the core joins the unblock waiters and retries.

The two hit paths and the stalled core's registration run inside the core
model's kernel (``advance_fetch`` and ``wait_unblock`` in ``cpu/_core.c``),
which probes the caches' blocks directly.  The miss path past the L2
(``_after_l2_miss``), the fill path (``_on_fill``, ``_fill_l1``, the L2
victim's owner and L1 copy) and the structural-stall wake-ups
(``_on_space_freed``) run in the same kernel's ``HierarchyKernel``, the
base of :class:`CacheHierarchy`.  The kernel's objects call these
entries' C bodies directly, and the controller's ``enqueue`` and the
cores' data and unblock waiters likewise, while each callable they hold
is the kernel's own method; a method wrapped or overridden before the
machine is built is called through Python (docs/ARCHITECTURE.md, "The
model in C").  The writeback path below stays Python: the kernel calls
:meth:`CacheHierarchy._emit_writeback` only for a dirty victim.

Instruction fetch is not simulated: the synthetic SPEC-like traces model
data references only (SPEC CPU2000 instruction footprints fit comfortably
in the 64 KB L1I), which the paper's memory-scheduling results do not
depend on.

Stores are write-allocate / write-back: a store miss fetches the line like
a load (occupying an MSHR) but never blocks commit — only the fetch stage,
via MSHR back-pressure.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.cache.cache import SetAssocCache
from repro.cache.mshr import MshrFile
from repro.config import SystemConfig
from repro.controller.request import MemoryRequest
from repro.cpu.kernel import kernel
from repro.util.counters import int64s

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import MemoryController

__all__ = ["PENDING", "BLOCKED", "CacheHierarchy"]

#: _after_l2_miss result: new memory request issued; waiter fires on return
PENDING = -1
#: _after_l2_miss result: structural stall (MSHR or controller buffer full)
BLOCKED = -2
#: _after_l2_miss result: miss merged onto an in-flight line; waiter fires
MERGED = -3

HierarchyKernel = kernel.HierarchyKernel


class CacheHierarchy(HierarchyKernel):
    """L1-per-core + shared-L2 hierarchy.

    ``controller``, ``spans``, ``writebacks`` (dirty lines written back
    to memory), ``_l2_outstanding`` and ``_space_watch_armed`` are
    kernel fields, and the stalled cores' unblock waiters and each MSHR
    entry's waiters are kernel records.  ``_owner`` is the L2's
    owner column: the core whose fill last installed the line in each L2
    way, the core a dirty victim's writeback is billed to.
    ``_after_l2_miss(core_id, line, is_write, now, waiter)`` returns
    :data:`PENDING` (new memory request issued), :data:`MERGED` (joined
    an in-flight miss) — for both, ``waiter`` fires when the data
    returns — or :data:`BLOCKED`; it runs once per retry of every
    blocked reference, not just once per miss.
    """

    # The kernel's entry points, named in this class's own namespace so
    # instrumentation can wrap them by name before a machine is built
    # (the constructor binds them once).
    _after_l2_miss = HierarchyKernel._after_l2_miss
    _on_fill = HierarchyKernel._on_fill
    _fill_l1 = HierarchyKernel._fill_l1
    _on_space_freed = HierarchyKernel._on_space_freed

    def __init__(
        self,
        config: SystemConfig,
        controller: "MemoryController",
        num_cores: int,
    ) -> None:
        cc = config.caches
        self.config = config
        self.num_cores = num_cores
        self.line_bytes = cc.l2.line_bytes
        self._line_mask = ~(self.line_bytes - 1)
        # Hit latencies the core kernel reads once, at core construction.
        self._l1_hit_latency = cc.l1d.hit_latency
        self._l2_hit_latency = cc.l1d.hit_latency + cc.l2.hit_latency
        self.l1d = [
            SetAssocCache(cc.l1d, name=f"L1D[{i}]") for i in range(num_cores)
        ]
        self.l2 = SetAssocCache(cc.l2, name="L2")
        self.mshrs = [MshrFile(cc.l1d.mshrs) for _ in range(num_cores)]
        self.l2_mshr_cap = cc.l2.mshrs
        self._owner = int64s(len(self.l2._tags))
        #: writebacks that could not enter a full controller buffer
        self._wb_overflow: deque[MemoryRequest] = deque()
        self._wb_flush_armed = False
        #: per-core demand L2 misses (for workload statistics)
        self.l2_misses = int64s(num_cores)
        self.demand_accesses = int64s(num_cores)
        self._bind(
            controller=controller,
            l1d=self.l1d,
            l2=self.l2,
            mshrs=self.mshrs,
            l2_mshr_cap=self.l2_mshr_cap,
            owner=self._owner,
            l2_misses=self.l2_misses,
            demand_accesses=self.demand_accesses,
            # Calls out of the kernel, bound once here: a read's
            # completion callback and the controller-space watch are the
            # hierarchy's own entry points.
            enqueue=controller.enqueue,
            on_fill=self._on_fill,
            on_space_freed=self._on_space_freed,
            emit_writeback=self._emit_writeback,
        )

    # -- writeback path --------------------------------------------------------

    def _emit_writeback(self, core_id: int, line: int, now: int) -> None:
        self.writebacks += 1
        req = MemoryRequest(
            addr=line, core_id=core_id, is_write=True, arrival_cycle=now
        )
        if self.spans is not None:
            req.span = self.spans.offer_write(core_id, line, now)
        if not self.controller.enqueue(req, now):
            self._wb_overflow.append(req)
            self._arm_wb_flush()

    def _arm_wb_flush(self) -> None:
        if not self._wb_flush_armed:
            self._wb_flush_armed = True
            self.controller.wait_for_space(self._flush_writebacks)

    def _flush_writebacks(self, now: int) -> None:
        self._wb_flush_armed = False
        while self._wb_overflow:
            req = self._wb_overflow[0]
            if not self.controller.enqueue(req, now):
                self._arm_wb_flush()
                return
            self._wb_overflow.popleft()

    def close(self) -> None:
        """Drop the waiters, queued writebacks and bound callables of a
        finished run (see :meth:`~repro.sim.system.MultiCoreSystem.close`);
        the caches and counters stay readable."""
        self._unbind()
        self._wb_overflow.clear()

    # -- statistics ---------------------------------------------------------------

    def l1_miss_rate(self, core_id: int) -> float:
        return self.l1d[core_id].stats.miss_rate

    def l2_miss_count(self, core_id: int) -> int:
        return self.l2_misses[core_id]
