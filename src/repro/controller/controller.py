"""The memory controller: per-channel scheduling, write drain, statistics.

This is the component the paper modifies.  Responsibilities:

* accept line requests from the cache hierarchy into the shared buffer
  (back-pressure when the 64-entry buffer is full);
* at each per-channel scheduling point, choose the next transaction via the
  active :class:`~repro.core.policy.SchedulingPolicy` — reads normally,
  writes when the drain hysteresis is engaged (write queue above half the
  buffer, drain until a quarter; Section 3.2/4.1) or opportunistically when
  a channel has no pending reads;
* decide the page policy per transaction (close-page default: keep the row
  open only while another queued request targets it);
* add the fixed controller overhead (15 ns) to every read's return path and
  deliver completions back to the cores through the event engine.

Scheduling cadence: one transaction is committed per channel per burst
slot — the next decision point is the previous burst's data-start cycle, so
bank preparation (ACT/PRE) overlaps data transfer, giving bank-level
parallelism without letting the scheduler commit far into the future.

A scheduling point runs in one frame (:meth:`_fast_point`): it reads and
writes the channel's bank arrays (:class:`~repro.dram.channel.Channel`)
directly, inlines the channel's transaction timing, and routes its two
event shapes through the engine's per-channel lanes (``kick`` for decision
points, ``complete`` for read completions) instead of the heap.

The class is defined as ``FastMemoryController``, and
``repro.controller.fast`` re-exports it, because ``bench/ledger.py``
wraps its entry points by that qualified name; the rest of the package
uses :data:`MemoryController`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.config import ControllerConfig
from repro.controller.queues import RequestQueues
from repro.controller.request import MemoryRequest
from repro.core.policy import SchedulingContext, SchedulingPolicy
from repro.dram.channel import TransactionTiming
from repro.dram.dram_system import DramSystem
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventEngine
    from repro.telemetry.hub import Telemetry

__all__ = ["ControllerStats", "MemoryController"]

#: bus track drain windows and request spans render on
TRACK = "controller"


def _min_opt(a: int | None, b: int | None) -> int | None:
    """Minimum of two optional cycles."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a < b else b


class ControllerStats:
    """Per-core and global memory-traffic statistics."""

    __slots__ = (
        "read_count",
        "read_latency_sum",
        "read_latency_max",
        "bytes_read",
        "bytes_written",
        "write_count",
        "read_row_hits",
        "drain_entries",
    )

    def __init__(self, num_cores: int) -> None:
        self.read_count = [0] * num_cores
        self.read_latency_sum = [0] * num_cores
        self.read_latency_max = [0] * num_cores
        self.bytes_read = [0] * num_cores
        self.bytes_written = [0] * num_cores
        self.write_count = [0] * num_cores
        self.read_row_hits = 0
        self.drain_entries = 0

    def avg_read_latency(self, core_id: int | None = None) -> float:
        """Average read latency in cycles, per core or overall."""
        if core_id is None:
            n = sum(self.read_count)
            s = sum(self.read_latency_sum)
        else:
            n = self.read_count[core_id]
            s = self.read_latency_sum[core_id]
        return s / n if n else 0.0

    def total_bytes(self, core_id: int) -> int:
        """All DRAM bytes moved on behalf of ``core_id`` (reads + writes)."""
        return self.bytes_read[core_id] + self.bytes_written[core_id]


class FastMemoryController:
    """Policy-driven DDR2 memory controller."""

    def __init__(
        self,
        config: ControllerConfig,
        dram: DramSystem,
        policy: SchedulingPolicy,
        num_cores: int,
        engine: "EventEngine",
        rng: RngStream,
        line_bytes: int = 64,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        config.validate()
        self.config = config
        self.dram = dram
        self.policy = policy
        self.num_cores = num_cores
        self.engine = engine
        self.rng = rng
        self.line_bytes = line_bytes
        self.queues = RequestQueues(config.buffer_entries, num_cores)
        self.stats = ControllerStats(num_cores)
        self.drain_mode = False
        #: telemetry hub; drain-mode transitions publish spans on its bus
        #: (None in normal runs — the guard is only evaluated on the rare
        #: hysteresis transitions, never per request)
        self.telemetry = telemetry
        #: request-lifecycle span collector (None unless the hub captures
        #: spans; the per-commit guard is one attribute test)
        self.spans = telemetry.spans if telemetry is not None else None
        self.refresh = None
        if config.refresh_enabled:
            from repro.dram.refresh import RefreshScheduler

            self.refresh = RefreshScheduler(len(dram.channels))
        #: callbacks waiting for a free buffer slot (stalled cores)
        self._space_waiters: list[Callable[[int], None]] = []
        #: per-channel flag: a decision point is already armed
        self._sched_pending = [False] * len(dram.channels)
        #: bank-ready eligibility horizon: committing a transaction to a
        #: still-busy bank would wedge the data bus behind it (head-of-line
        #: blocking a real command scheduler never suffers), so requests
        #: whose bank is busy beyond ``now + horizon`` are ineligible and
        #: the point re-arms at the earliest cycle one becomes eligible
        self._ready_horizon = 2 * dram.timing.t_burst
        policy.setup(num_cores, rng.child("policy"))
        #: reusable scheduling context — one per controller, mutated at
        #: each scheduling point instead of allocated (policies only read
        #: it during the select call; nothing retains it).  queues/dram/rng
        #: never change and ``hits_prefiltered`` is a property of the
        #: bound policy, so only ``now``/``channel`` vary.
        self._ctx = SchedulingContext(
            0, 0, self.queues, self.dram, self.rng,
            hits_prefiltered=policy.hit_first_global,
        )
        self._channels = dram.channels
        t = dram.timing
        self._t_rp = t.t_rp
        self._t_rcd = t.t_rcd
        self._t_cl = t.t_cl
        self._t_burst = t.t_burst
        self._t_wr = t.t_wr
        self._t_rrd = t.t_rrd
        self._t_faw = t.t_faw
        self._act_tracking = bool(t.t_rrd or t.t_faw)
        self._drain_high = config.write_drain_high
        self._drain_low = config.write_drain_low
        self._overhead = config.overhead
        self._open_page = config.page_policy == "open"
        # Address decode inlined into enqueue: the mapper memoises decoded
        # lines, so the common case is one dict probe.
        mapper = dram.mapper
        self._off_bits = mapper._off_bits
        self._decode_cache = mapper._decode_cache
        # Completion-side policy notification: the base
        # ``on_read_complete`` is a documented no-op, so skip the call
        # entirely unless the bound policy overrides it (online-ME does).
        self._on_read_complete = policy.on_read_complete
        self._notify_read = (
            getattr(policy.on_read_complete, "__func__", None)
            is not SchedulingPolicy.on_read_complete
        )
        # Pre-grow the per-channel queue views so the hot enqueue/commit
        # paths can index them unconditionally.
        nch = len(dram.channels)
        for by_ch in (self.queues.reads_by_ch, self.queues.writes_by_ch):
            while len(by_ch) < nch:
                by_ch.append([])
        engine.attach_channels(nch, self._fast_point, self._fast_deliver)

    # -- request intake --------------------------------------------------------

    def can_accept(self) -> bool:
        """Whether the shared buffer has a free slot."""
        q = self.queues
        return q.occupancy < q.capacity

    def enqueue(self, req: MemoryRequest, now: int) -> bool:
        """Accept ``req`` into the buffer; returns ``False`` when full.

        On ``False`` the caller must stall and register via
        :meth:`wait_for_space` to be re-woken.

        Inlines the address decode (memo probe), ``RequestQueues.add``
        (capacity already checked here; core ids come from the hierarchy
        and are trusted), the drain-mode no-transition fast path and the
        decision-slot kick.
        """
        qs = self.queues
        if qs.occupancy >= qs.capacity:
            return False
        addr = req.addr
        coord = self._decode_cache.get(addr >> self._off_bits)
        if coord is None:
            coord = self.dram.coord(addr)
        req._coord = coord
        req.bank = coord.bank
        req.row = coord.row
        req.arrival_cycle = now
        # -- inlined RequestQueues.add --
        req.seq = qs._next_seq
        qs._next_seq += 1
        qs.occupancy += 1
        ch = coord.channel
        if req.is_write:
            qs.writes.append(req)
            qs.pending_writes[req.core_id] += 1
            qs.writes_by_ch[ch].append(req)
        else:
            qs.reads.append(req)
            qs.pending_reads[req.core_id] += 1
            qs.reads_by_ch[ch].append(req)
        # -- drain-mode hysteresis (fast path; shared method on transition) --
        nw = len(qs.writes)
        if self.drain_mode:
            if nw <= self._drain_low:
                self._update_drain_mode(now)
        elif nw >= self._drain_high:
            self._update_drain_mode(now)
        # -- inlined _kick_channel + EventEngine.kick --
        if not self._sched_pending[ch]:
            self._sched_pending[ch] = True
            eng = self.engine
            busy = self._channels[ch].busy_until
            eng._dec_cycle[ch] = busy if busy > now else now
            eng._dec_seq[ch] = eng._seq
            eng._seq += 1
        return True

    def wait_for_space(self, callback: Callable[[int], None]) -> None:
        """Register a one-shot callback for the next freed buffer slot."""
        self._space_waiters.append(callback)

    # -- scheduling ------------------------------------------------------------

    def _update_drain_mode(self, now: int) -> None:
        nw = len(self.queues.writes)
        if not self.drain_mode and nw >= self.config.write_drain_high:
            self.drain_mode = True
            self.stats.drain_entries += 1
            if self.telemetry is not None:
                self.telemetry.bus.emit(
                    "write_drain", "begin", now, TRACK, writes=nw
                )
        elif self.drain_mode and nw <= self.config.write_drain_low:
            self.drain_mode = False
            if self.telemetry is not None:
                self.telemetry.bus.emit(
                    "write_drain", "end", now, TRACK, writes=nw
                )

    def _kick_channel(self, channel: int, now: int) -> None:
        """Arm the engine's decision slot for ``channel`` (deduped)."""
        if self._sched_pending[channel]:
            return
        self._sched_pending[channel] = True
        busy = self._channels[channel].busy_until
        self.engine.kick(channel, busy if busy > now else now)

    def _fast_deliver(self, now: int, req: MemoryRequest) -> None:
        """Completion-lane dispatch: hand read data back to the core side."""
        req.on_complete(req, now)
        if self._notify_read:
            self._on_read_complete(req.core_id, self.line_bytes, now)

    def _fast_point(self, now: int, channel: int) -> None:
        """One scheduling point, start to finish, in a single frame."""
        self._sched_pending[channel] = False
        ch = self._channels[channel]
        if self.refresh is not None:
            usable = self.refresh.advance(channel, ch, now)
            if usable > now:
                self._kick_channel(channel, usable)
                return
        qs = self.queues
        # Drain-mode hysteresis: inline the no-transition fast path, defer
        # to the shared method (stats + telemetry emit) on a transition.
        nw = len(qs.writes)
        if self.drain_mode:
            if nw <= self._drain_low:
                self._update_drain_mode(now)
        elif nw >= self._drain_high:
            self._update_drain_mode(now)
        # -- candidates ----------------------------------------------------
        # Precedence: drain writes > reads > idle writes.  Requests whose
        # ``arrival_cycle`` lies in the future are invisible — cores
        # running inside their bounded fetch lookahead may enqueue
        # future-dated requests, and serving one early would break
        # causality — and requests on busy banks are ineligible (see
        # ``_ready_horizon``).  ``next_arrival``, the earliest future
        # arrival or bank-ready wake, is only consumed when no candidate
        # is eligible, so the common case scans exactly one queue view.
        # ``*_wake`` is ``None`` exactly when that kind has no
        # arrived-but-ineligible request.
        ready_by_bank = ch.ready
        horizon = now + self._ready_horizon
        rbc = qs.reads_by_ch
        wbc = qs.writes_by_ch
        is_write = False
        candidates = None
        writes = ()
        w_wake = None
        future = None
        if self.drain_mode:
            writes = []
            any_write = False
            for w in wbc[channel]:
                arrival = w.arrival_cycle
                if arrival <= now:
                    any_write = True
                    t = ready_by_bank[w.bank]
                    if t <= horizon:
                        writes.append(w)
                    elif w_wake is None or t < w_wake:
                        w_wake = t
                elif future is None or arrival < future:
                    future = arrival
            if any_write:
                if writes:
                    candidates = writes
                    is_write = True
                else:
                    # Drain wants a write but none is bank-ready: the
                    # re-arm horizon spans *both* queues' future arrivals.
                    for r in rbc[channel]:
                        arrival = r.arrival_cycle
                        if arrival > now and (
                            future is None or arrival < future
                        ):
                            future = arrival
                    next_arrival = _min_opt(future, w_wake)
                    if next_arrival is not None:
                        self._kick_channel(channel, next_arrival)
                    return
        if candidates is None:
            reads = []
            r_wake = None
            r_future = None
            for r in rbc[channel]:
                arrival = r.arrival_cycle
                if arrival <= now:
                    t = ready_by_bank[r.bank]
                    if t <= horizon:
                        reads.append(r)
                    elif r_wake is None or t < r_wake:
                        r_wake = t
                elif r_future is None or arrival < r_future:
                    r_future = arrival
            if reads:
                candidates = reads
            else:
                if not self.drain_mode:
                    # Idle-channel opportunism: writes proceed when no read
                    # wants the channel ('writes are scheduled after read
                    # requests'); only now is the write view scanned.
                    writes = []
                    future = r_future
                    for w in wbc[channel]:
                        arrival = w.arrival_cycle
                        if arrival <= now:
                            t = ready_by_bank[w.bank]
                            if t <= horizon:
                                writes.append(w)
                            elif w_wake is None or t < w_wake:
                                w_wake = t
                        elif future is None or arrival < future:
                            future = arrival
                else:
                    # Drain scan above found no arrived write; it already
                    # holds the write-queue future and writes == [].
                    future = _min_opt(future, r_future)
                if writes:
                    candidates = writes
                    is_write = True
                else:
                    next_arrival = _min_opt(future, _min_opt(r_wake, w_wake))
                    if next_arrival is not None:
                        self._kick_channel(channel, next_arrival)
                    return  # idle; the next enqueue kicks the channel
        # -- policy selection --
        ctx = self._ctx
        ctx.now = now
        ctx.channel = channel
        if ctx.hits_prefiltered and len(candidates) > 1:
            # The paper's command-level rule: row-buffer hits beat misses
            # regardless of core priority (Sections 3.2 / 4.1).
            open_row = ch.open_row
            hits = [r for r in candidates if open_row[r.bank] == r.row]
            if hits:
                candidates = hits
        if is_write:
            req = self.policy.select_write(candidates, ctx)
        else:
            req = self.policy.select_read(candidates, ctx)
        # -- commit --
        bank = req.bank
        row = req.row
        core = req.core_id
        is_write_req = req.is_write
        # Inlined RequestQueues.remove: the request came from this
        # channel's view, so the per-channel list is known.
        qs.occupancy -= 1
        if is_write_req:
            qs.writes.remove(req)
            qs.pending_writes[core] -= 1
            wbc[channel].remove(req)
        else:
            qs.reads.remove(req)
            qs.pending_reads[core] -= 1
            rbc[channel].remove(req)
        # Page policy.  Closed (paper default): keep the row latched only
        # while another queued request would hit it.  Open: always.
        if self._open_page:
            keep_open = True
        else:
            keep_open = False
            for r in rbc[channel]:
                if r.bank == bank and r.row == row:
                    keep_open = True
                    break
            if not keep_open:
                for w in wbc[channel]:
                    if w.bank == bank and w.row == row:
                        keep_open = True
                        break
        # Inlined Channel.execute (keep in sync with channel.py).
        rc = ready_by_bank[bank]
        start = now if now > rc else rc
        bank_start = start
        open_row = ch.open_row
        hit = open_row[bank] == row
        conflict = False
        if hit:
            cas = start
        else:
            if open_row[bank] != -1:
                start += self._t_rp
                ch.confs[bank] += 1
                conflict = True
            act = start
            if self._act_tracking:
                act_times = ch._act_times
                if self._t_rrd and act_times:
                    t = act_times[-1] + self._t_rrd
                    if t > act:
                        act = t
                if self._t_faw and len(act_times) == 4:
                    t = act_times[0] + self._t_faw
                    if t > act:
                        act = t
                act_times.append(act)
            cas = act + self._t_rcd
        data_start = cas + self._t_cl
        if data_start < ch.bus_free_cycle:
            data_start = ch.bus_free_cycle
        data_end = data_start + self._t_burst
        ch.bus_free_cycle = data_end
        ch.busy_until = now + self._t_burst
        if hit:
            ch.hits[bank] += 1
        else:
            ch.acts[bank] += 1
        recovery = self._t_wr if is_write_req else 0
        if keep_open:
            open_row[bank] = row
            ready_by_bank[bank] = data_end + recovery
        else:
            open_row[bank] = -1
            ready_by_bank[bank] = data_end + recovery + self._t_rp
        ch.transactions += 1
        if is_write_req:
            ch.writes += 1
        ch.data_cycles += data_end - data_start
        dram = self.dram
        if dram.observer is not None:
            timing = TransactionTiming(
                cas_cycle=cas,
                data_start=data_start,
                data_end=data_end,
                row_hit=hit,
                start_cycle=bank_start,
                conflict=conflict,
            )
            dram.observer(req.coord, timing, is_write_req, keep_open, conflict)
        req.issue_cycle = now
        req.row_hit = hit
        st = self.stats
        if is_write_req:
            req.done_cycle = data_end
            st.write_count[core] += 1
            st.bytes_written[core] += self.line_bytes
        else:
            # Reads pay the controller overhead on the return path.
            done = data_end + self._overhead
            req.done_cycle = done
            st.read_count[core] += 1
            lat = done - req.arrival_cycle
            st.read_latency_sum[core] += lat
            if lat > st.read_latency_max[core]:
                st.read_latency_max[core] = lat
            st.bytes_read[core] += self.line_bytes
            if hit:
                st.read_row_hits += 1
            if req.on_complete is not None:
                self.engine.complete(channel, done, req)
        span = req.span
        if span is not None:
            # Observation only: copy the resolved stamps onto the span.
            coord = req.coord
            span.arrival = req.arrival_cycle
            span.pick = now
            span.track = TRACK
            span.channel = ch.index
            span.bank = coord.bank
            span.row = coord.row
            span.bank_start = bank_start
            span.cas = cas
            span.data_start = data_start
            span.data_end = data_end
            span.done = req.done_cycle
            span.row_hit = hit
            span.conflict = conflict
            self.spans.finish(span)
        if self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for cb in waiters:
                cb(now)
        # More work? Re-arm at the channel's next issue opportunity
        # (inlined _kick_channel + EventEngine.kick).
        if qs.occupancy and not self._sched_pending[channel]:
            self._sched_pending[channel] = True
            eng = self.engine
            busy = ch.busy_until
            eng._dec_cycle[channel] = busy if busy > now else now
            eng._dec_seq[channel] = eng._seq
            eng._seq += 1


#: the memory controller (see the module docstring for the defined name)
MemoryController = FastMemoryController
