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
non-memory instructions instead of iterating per cycle — the optimisation
that makes a pure-Python reproduction feasible (see the HPC guide's advice
to replace per-step loops with batch arithmetic).

Fidelity approximations (intentional, documented):

* When fetch resumes after a ROB-full or structural stall, its cursor is
  clamped forward to the wake point (the front end loses the cycles it
  was stalled, slightly conservative).
* Each core may run up to ``lookahead`` cycles past the globally committed
  simulation time; requests it emits are future-dated and the controller
  refuses to schedule them early (see ``MemoryController._fast_point``),
  so causality holds, while the bound keeps cross-core L2 interleaving
  honest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.hierarchy import BLOCKED, MERGED, PENDING, CacheHierarchy
from repro.config import CoreConfig
from repro.cpu.trace import MemOp, TraceSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventEngine

__all__ = ["CoreStats", "TraceCore"]

#: ready_cycle sentinel for loads still waiting on DRAM
_NOT_READY = 1 << 62


@dataclass
class CoreStats:
    """Per-core execution counters."""

    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    mem_requests: int = 0
    structural_stalls: int = 0

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores


class TraceCore:
    """One simulated core executing a :class:`TraceSource`.

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

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: TraceSource,
        hierarchy: CacheHierarchy,
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
        self.core_id = core_id
        self.config = config
        self.trace = trace
        #: bound trace feed — _fetch_mem_op pulls one op per memory
        #: instruction and skips the method lookup chain
        self._next_op = trace.next_op
        self.hierarchy = hierarchy
        self.engine = engine
        self.target_insts = target_insts
        self.warmup_insts = warmup_insts
        self.lookahead = lookahead
        self.stats = CoreStats()

        q = config.issue_width
        self._Q = q
        # Hot-loop constants resolved once: the fetch/commit loops run per
        # instruction batch and must not walk config objects.
        self._rob_size = config.rob_size
        self._l1_hit_latency = hierarchy.config.caches.l1d.hit_latency
        # This core's L1 internals, bound once for the inlined hit path in
        # _fetch_mem_op.  The set list and geometry are stable for the
        # cache's lifetime (clear() empties the sets in place); the stats
        # object is re-read per access because clear() replaces it.
        l1 = hierarchy.l1d[core_id]
        self._l1 = l1
        self._l1_sets = l1._sets
        self._l1_off_bits = l1._off_bits
        self._l1_set_mask = l1._set_mask
        self._demand_accesses = hierarchy.demand_accesses
        # Stable memory-path internals, bound once for the blocked-retry
        # probe in _on_unblock (same lifetime argument as the L1 bindings
        # above; the L2 set list is cleared in place, never replaced, and
        # the MSHR/queue objects live as long as the system).
        l2 = hierarchy.l2
        self._line_mask = hierarchy._line_mask
        self._l2_sets = l2._sets
        self._l2_off_bits = l2._off_bits
        self._l2_set_mask = l2._set_mask
        mshr = hierarchy.mshrs[core_id]
        self._mshr_entries = mshr._entries
        self._mshr_cap = mshr.capacity
        self._l2_mshr_cap = hierarchy.l2_mshr_cap
        #: the controller's shared buffer
        self._ctrl_queues = hierarchy.controller.queues
        self._cq_cap = self._ctrl_queues.capacity
        # Bound-method callbacks created once: the retry/store paths pass
        # these thousands of times per run, and each plain attribute access
        # would build a fresh bound method.
        self._on_unblock_cb = self._on_unblock
        self._store_cb = self._store_data_cb
        # Slot-unit cursors: fetch_q/commit_q point at the next free slot.
        self.fetch_q = 0
        self.commit_q = 0
        self.fetched = 0
        self.committed = 0
        #: cumulative commit slots lost waiting on head loads — epoch
        #: deltas of this / (issue_width * cycles) are the telemetry
        #: sampler's ROB-stall-fraction series
        self.stall_q = 0
        #: loads in the instruction window: [inst_no, ready_cycle]
        self._rob: deque[list[int]] = deque()
        #: next memory op waiting to be fetched, and its instruction index
        self._cur_op: MemOp | None = None
        self._cur_op_inst = 0
        self._trace_done = False
        self._blocked = False
        self._stopped = False
        self._fetch_was_full = False
        #: cycle the warmup budget committed (0 when warmup_insts == 0)
        self.warmup_cycle: int | None = 0 if warmup_insts == 0 else None
        #: cycle the measurement budget committed, or None
        self.finish_cycle: int | None = None
        #: optional hooks fired once at each crossing: fn(core)
        self.on_warmup = None
        self.on_finish = None
        #: span collector for structural-stall stamps (wired by
        #: MultiCoreSystem when the telemetry hub captures spans)
        self.spans = None
        self._pull_next_op()
        # Replay fast path: when the trace is a recording (see
        # ReplayTrace.replay_state), the fetch loop indexes the op list
        # directly and only falls back to next_op() at the frontier.
        state = getattr(trace, "replay_state", None)
        if state is not None:
            self._replay_ops, self._trace_pos = state()
        else:
            self._replay_ops = None
            self._trace_pos = 0

    # -- public control --------------------------------------------------------

    def start(self) -> None:
        """Arm the core's first activation at cycle 0."""
        self.engine.schedule(0, self._wake)

    def stop(self) -> None:
        """Freeze the core (end of simulation)."""
        self._stopped = True

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

    # -- trace feed --------------------------------------------------------------

    def _pull_next_op(self) -> None:
        op = self._next_op()
        if op is None:
            self._trace_done = True
            self._cur_op = None
        else:
            self._cur_op = op
            self._cur_op_inst = self.fetched + op.gap

    def _pull_fallback(self) -> MemOp | None:
        """Pull one op through the trace object (non-replay sources, and
        the generation frontier of a recording).  Keeps the replay cursor
        in ``self._trace_pos`` coherent with the trace's own."""
        if self._replay_ops is None:
            return self._next_op()
        op, self._trace_pos = self.trace.pull(self._trace_pos)
        return op

    # -- engine callbacks ----------------------------------------------------------

    def _wake(self, now: int) -> None:
        if not self._stopped:
            self._run(now)

    def _on_unblock(self, now: int) -> None:
        if self._stopped or not self._blocked:
            return  # stale wake (another resource freed us already)
        # The front end lost the stalled cycles; resume from the wake point.
        if self.fetch_q < now * self._Q:
            self.fetch_q = now * self._Q
        # Fast re-block test.  Resource-freed wakes fan out to every
        # blocked core, so most retries find the freed slot already taken
        # and block again immediately.  Probe the exact BLOCKED conditions
        # of CacheHierarchy.access_after_l1_miss (membership tests only —
        # a miss path mutates nothing); when the op would just block
        # again, charge the stats the failed attempt would have charged
        # and re-register, skipping the full run-loop scaffolding.  Safe
        # because commit state is already maximal at every event boundary
        # (commit has no time cap) and _fetch_was_full is never set while
        # blocked, so the skipped passes are provably no-ops.
        op = self._cur_op
        if op is not None:
            addr = op.addr
            tag = addr >> self._l1_off_bits
            if tag not in self._l1_sets[tag & self._l1_set_mask]:
                line = addr & self._line_mask
                t2 = line >> self._l2_off_bits
                if t2 not in self._l2_sets[t2 & self._l2_set_mask]:
                    h = self.hierarchy
                    entries = self._mshr_entries
                    cq = self._ctrl_queues
                    if line not in entries and (
                        len(entries) >= self._mshr_cap
                        or h._l2_outstanding >= self._l2_mshr_cap
                        or cq.occupancy >= self._cq_cap
                    ):
                        self._demand_accesses[self.core_id] += 1
                        self._l1.stats.misses += 1
                        h.l2.stats.misses += 1
                        self.stats.structural_stalls += 1
                        if self.spans is not None:
                            self.spans.note_blocked(
                                self.core_id, self.fetch_q // self._Q, line
                            )
                        # Inlined CacheHierarchy.wait_unblock (keep in
                        # sync): failed retries are the most frequent
                        # wake in memory-bound runs.
                        h._unblock_waiters.append(self._on_unblock_cb)
                        if not h._space_watch_armed:
                            h._space_watch_armed = True
                            h.controller.wait_for_space(h._on_space_freed)
                        return  # still blocked
        self._blocked = False
        self._run(now)

    def _on_load_ready(self, entry: list[int], now: int) -> None:
        entry[1] = now
        if not self._stopped:
            self._run(now)

    # -- the simulation loop ---------------------------------------------------------

    def _run(self, now: int) -> None:
        """Advance fetch and commit as far as currently deterministic,
        bounded by ``now + lookahead`` for fetch."""
        limit_q = (now + self.lookahead) * self._Q
        advance_commit = self._advance_commit
        while True:
            advance_commit()
            if self._blocked or self._stopped:
                return
            # If fetch had filled the window, it resumed only because
            # commit freed slots — so its clock cannot be behind commit's
            # (the documented resume-clamp; without it the front end would
            # fetch 'in the past' after long memory stalls).
            if (
                self._fetch_was_full
                and self.fetched - self.committed < self._rob_size
            ):
                self._fetch_was_full = False
                if self.fetch_q < self.commit_q:
                    self.fetch_q = self.commit_q
            if not self._advance_fetch(limit_q):
                # No new instructions entered the window since the commit
                # pass above, so a trailing commit pass would be a no-op.
                break
        self._arm_wake(now, limit_q)

    # .. commit ..

    def _advance_commit(self) -> None:
        """Retire instructions up to the first not-ready load (no time cap:
        commit timing is deterministic once ready times are known)."""
        Q = self._Q
        rob = self._rob
        committed = self.committed
        commit_q = self.commit_q
        fetched = self.fetched
        # _check_finish only matters until the measurement budget commits;
        # afterwards (the reload phase that keeps contention alive) the
        # crossing checks are dead weight.  While it does matter, it is a
        # no-op below the next threshold (warmup, then warmup+target), so
        # gate the call on crossing that threshold — down from one call
        # per retire batch to one per actual crossing.
        check = self.finish_cycle is None
        if check:
            total = self.warmup_insts + self.target_insts
            threshold = self.warmup_insts if self.warmup_cycle is None else total
        while True:
            barrier = rob[0] if rob else None
            boundary = barrier[0] if barrier is not None else fetched
            free = boundary - committed
            if free > 0:
                # Plain instructions retire at Q per cycle.
                committed += free
                commit_q += free
                if check and committed >= threshold:
                    self.committed = committed
                    self.commit_q = commit_q
                    self._check_finish()
                    check = self.finish_cycle is None
                    if check:
                        threshold = (
                            self.warmup_insts
                            if self.warmup_cycle is None
                            else total
                        )
                    fetched = self.fetched
                continue
            if barrier is None or barrier[0] >= fetched:
                break  # nothing more fetched
            ready = barrier[1]
            if ready >= _NOT_READY:
                break  # head load still waiting on memory
            # The load itself retires, no earlier than its data-ready cycle.
            min_q = ready * Q
            if commit_q < min_q:
                self.stall_q += min_q - commit_q
                commit_q = min_q
            commit_q += 1
            committed += 1
            rob.popleft()
            if check and committed >= threshold:
                self.committed = committed
                self.commit_q = commit_q
                self._check_finish()
                check = self.finish_cycle is None
                if check:
                    threshold = (
                        self.warmup_insts
                        if self.warmup_cycle is None
                        else total
                    )
                fetched = self.fetched
        self.committed = committed
        self.commit_q = commit_q

    def _crossing_cycle(self, threshold: int) -> int:
        """Cycle the ``threshold``-th instruction committed (within the
        batch that just completed): slot interpolation from commit_q."""
        slot = self.commit_q - 1 - (self.committed - threshold)
        return slot // self._Q + 1

    def _check_finish(self) -> None:
        if self.warmup_cycle is None and self.committed >= self.warmup_insts:
            self.warmup_cycle = self._crossing_cycle(self.warmup_insts)
            if self.on_warmup is not None:
                self.on_warmup(self)
        total = self.warmup_insts + self.target_insts
        if self.finish_cycle is None and self.committed >= total:
            self.finish_cycle = self._crossing_cycle(total)
            if self.on_finish is not None:
                self.on_finish(self)

    # .. fetch ..

    def _advance_fetch(self, limit_q: int) -> bool:
        """Fetch up to ``limit_q``; returns whether any progress was made.

        One fused loop covering gap batches *and* memory ops, with the hot
        cursors held in locals and written back once on exit.  That is safe
        because nothing re-enters this core synchronously mid-call: commit
        never runs inside fetch (``committed`` is constant here), the
        hierarchy reads no core state, and data/unblock waiters only fire
        later via engine events.  The L1 probe is the inlined body of
        SetAssocCache.lookup (keep in sync with cache.py), charged to the
        hierarchy's counters exactly as CacheHierarchy.access would; misses
        continue in access_after_l1_miss, and only they need a data waiter,
        so the per-load closure is built on that path alone.
        """
        Q = self._Q
        rob_size = self._rob_size
        rob = self._rob
        stats = self.stats
        l1 = self._l1
        l1_sets = self._l1_sets
        l1_off_bits = self._l1_off_bits
        l1_set_mask = self._l1_set_mask
        l1_hit_latency = self._l1_hit_latency
        demand = self._demand_accesses
        core_id = self.core_id
        # Counter cells hoisted to locals for the per-op loop and written
        # back once at exit (no callee reads them mid-call: the hierarchy
        # charges its own counters and nothing re-enters this core).  The
        # L1 stats object is re-read per call because clear() replaces it.
        l1_stats = l1.stats
        n_l1_hits = 0  # l1.stats.hits
        n_l1_miss = 0  # l1.stats.misses
        n_demand = 0  # demand_accesses[core_id]
        n_loads = 0
        n_stores = 0
        n_s_l1_hits = 0  # stats.l1_hits
        # L2 fast path hoists (the L2-hit continuation of
        # access_after_l1_miss is inlined below; keep in sync).
        h = self.hierarchy
        line_mask = self._line_mask
        l2_sets = self._l2_sets
        l2_off_bits = self._l2_off_bits
        l2_set_mask = self._l2_set_mask
        l2stats = h.l2.stats
        l2_hit_latency = h._l2_hit_latency
        l2_lat_is_l1 = l2_hit_latency == l1_hit_latency
        fill_l1 = h._fill_l1
        after_l2_miss = h._after_l2_miss
        n_l2_hits = 0  # l2.stats.hits
        n_l2_miss = 0  # l2.stats.misses
        n_l2_load_hits = 0  # stats.l2_hits
        r_ops = self._replay_ops
        r_pos = self._trace_pos
        # Recording length, hoisted: another consumer may extend the
        # recording, but only through next_op()/pull() — so the cached
        # length can only be stale-short, and the fallback path (which
        # serves from the recording too) refreshes it.  Op values are
        # identical either way.
        n_ops = len(r_ops) if r_ops is not None else 0
        committed = self.committed
        fetched = self.fetched
        fetch_q = self.fetch_q
        op = self._cur_op
        cur_inst = self._cur_op_inst
        progressed = False
        while fetch_q < limit_q:
            space = rob_size - (fetched - committed)
            if space <= 0:
                self._fetch_was_full = True
                break  # window full: wait for commit
            if op is None:
                if self._trace_done:
                    # Tail: plain instructions so a finite trace can still
                    # reach its budget (tests); stop at the budget.
                    remaining = self.warmup_insts + self.target_insts - fetched
                    if remaining <= 0:
                        break
                    take = min(remaining, space, limit_q - fetch_q)
                    if take <= 0:
                        break
                    fetched += take
                    fetch_q += take
                    progressed = True
                    continue
                if r_pos < n_ops:
                    op = r_ops[r_pos]
                    r_pos += 1
                    cur_inst = fetched + op.gap
                else:
                    self._trace_pos = r_pos
                    op = self._pull_fallback()
                    r_pos = self._trace_pos
                    if r_ops is not None:
                        n_ops = len(r_ops)
                    if op is None:
                        self._trace_done = True
                    else:
                        cur_inst = fetched + op.gap
                continue
            plain = cur_inst - fetched
            if plain > 0:
                # take = min(plain, space, limit_q - fetch_q), inlined.
                take = plain if plain < space else space
                room = limit_q - fetch_q
                if room < take:
                    take = room
                if take <= 0:
                    break
                fetched += take
                fetch_q += take
                progressed = True
                continue
            # The memory instruction itself is due this slot.
            cycle = fetch_q // Q
            is_write = op.is_write
            addr = op.addr
            n_demand += 1
            tag = addr >> l1_off_bits
            s = l1_sets[tag & l1_set_mask]
            if tag in s:
                # L1 hit — the overwhelmingly common outcome — handled
                # entirely here; move-to-back refreshes recency.
                s[tag] = s.pop(tag) or is_write
                n_l1_hits += 1
                if is_write:
                    n_stores += 1
                else:
                    # Ready loads never mutate their entry: a tuple is
                    # cheaper to build than a list and commits identically.
                    rob.append((fetched, cycle + l1_hit_latency))
                    n_s_l1_hits += 1
                    n_loads += 1
            else:
                n_l1_miss += 1
                line = addr & line_mask
                t2 = line >> l2_off_bits
                s2 = l2_sets[t2 & l2_set_mask]
                if t2 in s2:
                    # L2 hit — the hit path of access_after_l1_miss
                    # (keep in sync with hierarchy.py): refresh L2
                    # recency, install into L1 and retire the reference
                    # here, with no waiter.
                    s2[t2] = s2.pop(t2)
                    n_l2_hits += 1
                    fill_l1(core_id, line, dirty=is_write, now=cycle)
                    if is_write:
                        n_stores += 1
                    else:
                        # Data is ready at a known cycle: a tuple entry
                        # commits identically and never mutates.
                        rob.append((fetched, cycle + l2_hit_latency))
                        if l2_lat_is_l1:
                            n_s_l1_hits += 1
                        else:
                            n_l2_load_hits += 1
                        n_loads += 1
                else:
                    n_l2_miss += 1
                    if is_write:
                        entry = None
                        waiter = self._store_cb
                    else:
                        entry = [fetched, _NOT_READY]
                        # (method, entry) pair instead of a per-miss
                        # closure; MSHR fire sites unpack it (see
                        # MshrFile.complete).
                        waiter = (self._on_load_ready, entry)
                    result = after_l2_miss(core_id, line, is_write, cycle, waiter)
                    if result == BLOCKED:
                        stats.structural_stalls += 1
                        if self.spans is not None:
                            # Stamp the first attempt so the eventual
                            # request's span can attribute the
                            # structural-stall wait.
                            self.spans.note_blocked(core_id, cycle, line)
                        self._blocked = True
                        # Inlined CacheHierarchy.wait_unblock (keep in
                        # sync).
                        h._unblock_waiters.append(self._on_unblock_cb)
                        if not h._space_watch_armed:
                            h._space_watch_armed = True
                            h.controller.wait_for_space(h._on_space_freed)
                        break  # op stays pending for the retry
                    elif is_write:
                        n_stores += 1
                    else:
                        # PENDING (new memory request) or MERGED (rides an
                        # in-flight line): either way the load waits.
                        n_loads += 1
                        if result == PENDING:
                            stats.mem_requests += 1
                        rob.append(entry)
            fetched += 1
            fetch_q += 1
            if r_pos < n_ops:
                op = r_ops[r_pos]
                r_pos += 1
                cur_inst = fetched + op.gap
            else:
                self._trace_pos = r_pos
                op = self._pull_fallback()
                r_pos = self._trace_pos
                if r_ops is not None:
                    n_ops = len(r_ops)
                if op is None:
                    self._trace_done = True
                else:
                    cur_inst = fetched + op.gap
            progressed = True
        self.fetched = fetched
        self.fetch_q = fetch_q
        self._trace_pos = r_pos
        self._cur_op = op
        self._cur_op_inst = cur_inst
        if n_demand:
            demand[core_id] += n_demand
            l1_stats.hits += n_l1_hits
            l1_stats.misses += n_l1_miss
            stats.loads += n_loads
            stats.stores += n_stores
            stats.l1_hits += n_s_l1_hits
            if n_l1_miss:
                l2stats.hits += n_l2_hits
                l2stats.misses += n_l2_miss
                stats.l2_hits += n_l2_load_hits
        return progressed

    def _store_data_cb(self, _line: int, now: int) -> None:
        """Store-miss data arrived: nothing blocks on it, but re-run in case
        the MSHR slot it frees unblocks the front end indirectly."""
        if not self._stopped and not self._blocked:
            self._run(now)

    # .. wake management ..

    def _arm_wake(self, now: int, limit_q: int) -> None:
        """Schedule the next spontaneous activation, if one is needed.

        Blocked cores are woken by callbacks; cores stalled at the window
        head are woken by their load's data return; only a core that
        stopped purely because of the lookahead bound needs a timer.
        """
        if self._stopped or self._blocked:
            return
        if self._trace_done and self.fetched >= self.warmup_insts + self.target_insts:
            return  # drained
        # Stalled on window-full with a pending head load: response wakes us.
        space = self._rob_size - (self.fetched - self.committed)
        if space <= 0 and self._rob and self._rob[0][1] >= _NOT_READY:
            return
        if self.fetch_q >= limit_q:
            self.engine.schedule(limit_q // self._Q, self._wake)
            return
        # Window full but head load has a known ready time: wake then.
        if space <= 0 and self._rob:
            self.engine.schedule(max(self._rob[0][1], now + 1), self._wake)
            return
        # Otherwise fetch stopped for a reason that resolves via callbacks.
