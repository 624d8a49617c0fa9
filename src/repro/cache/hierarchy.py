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
  :data:`BLOCKED`; the core joins ``_unblock_waiters`` and retries.

The two hit paths and the stalled core's registration run inside the core
model's C kernel (``advance_fetch`` and ``wait_unblock`` in
``cpu/_core.c``), which probes the caches' sets directly and enters this
class at :meth:`CacheHierarchy._after_l2_miss`.

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
from typing import Callable

from repro.cache.cache import SetAssocCache
from repro.cache.mshr import MshrFile, Waiter
from repro.config import SystemConfig
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest

__all__ = ["PENDING", "BLOCKED", "CacheHierarchy"]

#: _after_l2_miss result: new memory request issued; waiter fires on return
PENDING = -1
#: _after_l2_miss result: structural stall (MSHR or controller buffer full)
BLOCKED = -2
#: _after_l2_miss result: miss merged onto an in-flight line; waiter fires
MERGED = -3


class CacheHierarchy:
    """L1-per-core + shared-L2 hierarchy."""

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        num_cores: int,
    ) -> None:
        cc = config.caches
        self.config = config
        self.controller = controller
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
        self._l2_outstanding = 0
        #: in-flight lines that have a merged store (fill installs dirty)
        self._store_pending: set[int] = set()
        #: line owner for writeback attribution
        self._owner: dict[int, int] = {}
        #: writebacks that could not enter a full controller buffer
        self._wb_overflow: deque[MemoryRequest] = deque()
        self._wb_flush_armed = False
        #: one-shot callbacks of cores stalled on a structural hazard
        self._unblock_waiters: list[Callable[[int], None]] = []
        #: whether a controller-space watch is currently armed (single
        #: registration — re-arming per retry would accumulate stale
        #: callbacks and make every buffer-slot release O(retries))
        self._space_watch_armed = False
        #: request-lifecycle span collector (wired by MultiCoreSystem
        #: when the telemetry hub captures spans; None otherwise)
        self.spans = None
        #: per-core demand L2 misses (for workload statistics)
        self.l2_misses = [0] * num_cores
        self.demand_accesses = [0] * num_cores
        #: dirty lines written back to memory (telemetry / analyses)
        self.writebacks = 0

    # -- core-facing API -------------------------------------------------------

    def _after_l2_miss(
        self,
        core_id: int,
        line: int,
        is_write: bool,
        now: int,
        waiter: Waiter | None,
    ) -> int:
        """One reference that missed both caches (``line`` already aligned).

        The core model's fetch loop enters here after its own L1 and L2
        probes, which charged the demand access and the misses.  Returns
        :data:`PENDING` (new memory request issued), :data:`MERGED`
        (joined an in-flight miss) — for both, ``waiter`` fires when the
        data returns — or :data:`BLOCKED`, when the core registers for an
        unblock and retries.  This path runs once per retry of every
        blocked reference, not just once per miss.
        """
        mshr = self.mshrs[core_id]
        entries = mshr._entries
        waiters = entries.get(line)
        if waiters is not None:
            # Merge onto the in-flight miss.
            if waiter is not None:
                waiters.append(waiter)
            mshr.merges += 1
            if mshr.on_merge is not None:
                mshr.on_merge(line, now)
            if is_write:
                self._store_pending.add(line)
            return MERGED
        # blocks_again in cpu/_core.c repeats these BLOCKED tests for a
        # blocked core's retry (keep in sync).
        if len(entries) >= mshr.capacity or self._l2_outstanding >= self.l2_mshr_cap:
            return BLOCKED
        if not self.controller.can_accept():
            return BLOCKED
        # -- new MSHR entry --
        entries[line] = [waiter] if waiter is not None else []
        mshr.allocations += 1
        if len(entries) > mshr.peak_occupancy:
            mshr.peak_occupancy = len(entries)
        self._l2_outstanding += 1
        self.l2_misses[core_id] += 1
        if is_write:
            self._store_pending.add(line)
        req = MemoryRequest(
            addr=line,
            core_id=core_id,
            is_write=False,
            arrival_cycle=now,
            on_complete=self._on_fill,
        )
        if self.spans is not None:
            req.span = self.spans.start_request(core_id, line, "read", now)
        accepted = self.controller.enqueue(req, now)
        assert accepted, "can_accept() checked above"
        return PENDING

    def _on_space_freed(self, now: int) -> None:
        self._space_watch_armed = False
        # Wake every core stalled on a structural hazard: this fires once
        # per freed buffer slot, the hottest wake fan-out after fills.
        uw = self._unblock_waiters
        if uw:
            self._unblock_waiters = []
            for cb in uw:
                cb(now)

    # -- fill / writeback paths --------------------------------------------------

    def _on_fill(self, req: MemoryRequest, now: int) -> None:
        """Read data returned from DRAM: install the line, wake waiters.

        The L2 and L1 installs repeat SetAssocCache.fill and
        :meth:`_fill_l1` inline (keep in sync with them): this runs once
        per memory request and is the hottest completion path.  Calling
        them, and MSHR methods here and in :meth:`_after_l2_miss`, added
        about 8% more Python calls to a 2-core Figure 2 panel.
        """
        line = req.addr
        core = req.core_id
        dirty = line in self._store_pending
        self._store_pending.discard(line)
        l2 = self.l2
        tag = line >> l2._off_bits
        s = l2._sets[tag & l2._set_mask]
        evicted = None
        if tag in s:
            s[tag] = s.pop(tag)  # refresh recency; fill is clean
        else:
            if len(s) >= l2._assoc:
                victim_tag = next(iter(s))  # front of dict == LRU
                victim_dirty = s.pop(victim_tag)
                l2.stats.evictions += 1
                if victim_dirty:
                    l2.stats.dirty_evictions += 1
                evicted = (victim_tag << l2._off_bits, victim_dirty)
            s[tag] = False
            l2.stats.fills += 1
        self._owner[line] = core
        if evicted is not None:
            self._handle_l2_eviction(evicted, now)
        # -- L1 install (inlined _fill_l1) --
        l1 = self.l1d[core]
        t1 = line >> l1._off_bits
        s1 = l1._sets[t1 & l1._set_mask]
        if t1 in s1:
            s1[t1] = s1.pop(t1) or dirty
        else:
            v_dirty = False
            if len(s1) >= l1._assoc:
                v_tag = next(iter(s1))  # front of dict == LRU
                v_dirty = s1.pop(v_tag)
                l1.stats.evictions += 1
                if v_dirty:
                    l1.stats.dirty_evictions += 1
            s1[t1] = dirty
            l1.stats.fills += 1
            if v_dirty:
                v_addr = v_tag << l1._off_bits
                if not l2.set_dirty(v_addr):
                    self._emit_writeback(core, v_addr, now)
        self._l2_outstanding -= 1
        # -- MSHR retirement --
        mshr = self.mshrs[core]
        waiters = mshr._entries.pop(line)
        for w in waiters:
            # A ``(method, token)`` pair is the core model's closure-free
            # load waiter (see l2_miss in cpu/_core.c): the method takes
            # the load's ROB token instead of the line address.
            if type(w) is tuple:
                w[0](w[1], now)
            else:
                w(line, now)
        if self.spans is not None:
            self.spans.end_inflight(core, line)
        uw = self._unblock_waiters
        if uw:
            self._unblock_waiters = []
            for cb in uw:
                cb(now)

    def _fill_l1(self, core_id: int, line: int, *, dirty: bool, now: int) -> None:
        """Install ``line`` in ``core_id``'s L1 (an L2 hit or a fill)."""
        evicted = self.l1d[core_id].fill(line, dirty=dirty)
        if evicted is None or not evicted[1]:
            return
        # Dirty L1 victim: update the L2 copy; if L2 lost the line in the
        # meantime (non-inclusive drift), write it back to memory directly.
        v_addr = evicted[0]
        if not self.l2.set_dirty(v_addr):
            self._emit_writeback(core_id, v_addr, now)

    def _handle_l2_eviction(self, evicted: tuple[int, bool], now: int) -> None:
        v_addr, v_dirty = evicted
        owner = self._owner.pop(v_addr, 0)
        # The L1 copy (if any) is stale relative to an exclusive-ish victim;
        # invalidate to preserve inclusion. Merge its dirtiness first.
        l1 = self.l1d[owner] if owner < self.num_cores else None
        if l1 is not None and l1.probe(v_addr):
            v_dirty = v_dirty or l1.is_dirty(v_addr)
            l1.invalidate(v_addr)
        if v_dirty:
            self._emit_writeback(owner, v_addr, now)

    def _emit_writeback(self, core_id: int, line: int, now: int) -> None:
        self.writebacks += 1
        req = MemoryRequest(
            addr=line, core_id=core_id, is_write=True, arrival_cycle=now
        )
        if self.spans is not None:
            req.span = self.spans.start_request(core_id, line, "write", now)
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
        """Drop the waiters and queued writebacks of a finished run (see
        :meth:`~repro.sim.system.MultiCoreSystem.close`); the caches and
        counters stay readable."""
        self._unblock_waiters = []
        for mshr in self.mshrs:
            mshr._entries.clear()
        self._wb_overflow.clear()

    # -- statistics ---------------------------------------------------------------

    def l1_miss_rate(self, core_id: int) -> float:
        return self.l1d[core_id].stats.miss_rate

    def l2_miss_count(self, core_id: int) -> int:
        return self.l2_misses[core_id]
