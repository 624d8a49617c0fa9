"""Conservation laws of the core model, the cache hierarchy and the
memory controller.

Every demand reference a core makes is counted once: as a load, a store
or a failed attempt (a structural stall), and as an L1 hit or miss.
Every L1 miss reaches the L2 once, and every L2 miss that allocates an
MSHR is one memory request.  On the memory side, checked at every
committed transaction through ``dram.observers``: the buffer's occupancy
is its two queues and within capacity, no MSHR file overflows, each
core's pending counters count its queued requests, and the per-channel
views partition the queues.  The model kernel's native state obeys its
own laws: every store-pending flag sits on a live MSHR entry and no
counter is negative, checked at every commit; no cache set holds a tag
twice, more than its ways or a line of another set, every L2-resident
line has exactly one owner, a core of the machine, and each core's L1
lines are resident in the L2, checked at every :data:`BLOCK_STRIDE`-th
commit (a scan of the 4 MB L2's 65 536 ways costs about a millisecond).  At the end of a run every MSHR allocation
is a committed or queued read and every writeback a committed, queued or
overflowed write.  Write drains keep their hysteresis: one begins only
at the high watermark and ends only at the low one
(:func:`drain_violations`).  The laws hold for any configuration, so they judge
the model without the golden files: a counter the model forgets to
charge, or charges twice, breaks one of them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.registry import make_policy
from repro.cpu.trace import MemOp
from repro.sim.system import MultiCoreSystem
from repro.telemetry.hub import Telemetry
from repro.workloads import APPS, mixes_for, workload_by_name
from repro.workloads.synthetic import make_trace
from tests.machine import run_traces

#: the golden files' configuration (tests/test_golden_stats.py)
SEED, BUDGET, WARMUP = 7, 2500, 2000

PAPER_POLICIES = ("FCFS", "HF-RF", "RR", "LREQ", "ME", "ME-LREQ")


def run_system(apps, policy: str, budget: int, warmup: int, seed: int,
               me=None, config: SystemConfig | None = None,
               telemetry: Telemetry | None = None) -> MultiCoreSystem:
    """Run a machine with :class:`MemoryLaws` on its ``dram.observers``."""
    cfg = config or SystemConfig().with_cores(len(apps))
    traces = [make_trace(app, seed, "eval", core_id=i)
              for i, app in enumerate(apps)]
    kwargs = {"me_values": me or [1.0] * len(apps)}
    system = MultiCoreSystem(cfg, make_policy(policy, **kwargs), traces,
                             budget, warmup_insts=warmup, seed=seed,
                             telemetry=telemetry)
    MemoryLaws(system)
    system.run()
    return system


def _lawbook(broken: list[str]):
    def law(ok: bool, text: str) -> None:
        if not ok:
            broken.append(text)
    return law


def memory_state_violations(system: MultiCoreSystem) -> list[str]:
    """The memory-side laws that hold between any two events."""
    q = system.controller.queues
    h = system.hierarchy
    broken: list[str] = []
    law = _lawbook(broken)
    law(q.occupancy == len(q.reads) + len(q.writes),
        f"occupancy {q.occupancy} != {len(q.reads)} reads + "
        f"{len(q.writes)} writes")
    law(q.occupancy <= q.capacity,
        f"occupancy {q.occupancy} > capacity {q.capacity}")
    for i, m in enumerate(h.mshrs):
        law(m.occupancy <= m.capacity,
            f"core {i}: {m.occupancy} MSHRs > capacity {m.capacity}")
    law(h._l2_outstanding <= h.l2_mshr_cap,
        f"{h._l2_outstanding} L2 misses in flight > {h.l2_mshr_cap} MSHRs")
    for i in range(system.config.num_cores):
        reads = sum(r.core_id == i for r in q.reads)
        writes = sum(w.core_id == i for w in q.writes)
        law(q.pending_reads[i] == reads,
            f"core {i}: pending_reads {q.pending_reads[i]} != {reads} queued")
        law(q.pending_writes[i] == writes,
            f"core {i}: pending_writes {q.pending_writes[i]} != {writes} "
            f"queued")
    for kind, queue, views in (("reads", q.reads, q.reads_by_ch),
                               ("writes", q.writes, q.writes_by_ch)):
        for ch, view in enumerate(views):
            law(view == [r for r in queue if r.coord.channel == ch],
                f"channel {ch}'s view of the {kind} is not its part of the "
                f"queue")
        law(sum(map(len, views)) == len(queue),
            f"the channel views of the {kind} do not cover the queue")
    return broken


def _ways(cache):
    """``(tags, live)``: a cache's tag block as a sets x ways matrix, and
    which of its slots hold a resident line."""
    sets, assoc = cache._set_mask + 1, cache._assoc
    tags = np.frombuffer(cache._tags, np.int64).reshape(sets, assoc)
    live = np.arange(assoc) < np.frombuffer(cache._count, np.int64)[:, None]
    return tags, live


#: commits between two checks of the cache-block laws
BLOCK_STRIDE = 32


def native_state_violations(system: MultiCoreSystem,
                            blocks: bool = True) -> list[str]:
    """The laws of the kernel's typed storage: the MSHR tables and the
    counters, and with ``blocks`` the caches' blocks and the L2's owner
    column."""
    h = system.hierarchy
    broken: list[str] = []
    law = _lawbook(broken)
    for i, m in enumerate(h.mshrs):
        law(not any(m._stores[m.occupancy:]),
            f"core {i}: a store-pending flag outside the live MSHR entries")
    q, st = system.controller.queues, system.controller.stats
    counters = [q._c, q.pending_reads, q.pending_writes, st._c,
                st.read_count, st.read_latency_sum, st.read_latency_max,
                st.bytes_read, st.bytes_written, st.write_count,
                h.l2_misses, h.demand_accesses, h.l2.stats._c,
                *(c.stats._c for c in h.l1d), *(m._c for m in h.mshrs),
                *(c.stats._c for c in system.cores)]
    for ch in system.dram.channels:
        counters += [ch._c, ch.ready, ch.hits, ch.acts, ch.confs]
    law(min(map(min, counters)) >= 0 and h.writebacks >= 0,
        "a counter is negative")
    if not blocks:
        return broken
    for cache in (h.l2, *h.l1d):
        tags, live = _ways(cache)
        count = live.sum(axis=1)
        law((np.frombuffer(cache._count, np.int64) == count).all(),
            f"{cache.name}: a set holds more than {cache._assoc} lines "
            f"or fewer than none")
        law(((tags & cache._set_mask) == np.arange(len(tags))[:, None])
            [live].all(), f"{cache.name}: a line sits in another set")
        for a in range(cache._assoc):
            same = (tags[:, a + 1:] == tags[:, a:a + 1]) & live[:, a + 1:]
            law(not same.any(), f"{cache.name}: a set holds a tag twice")
    l2_tags, l2_live = _ways(h.l2)
    owner = np.frombuffer(h._owner, np.int64)
    law(owner.size == l2_tags.size,
        "the owner column does not have one slot per L2 way")
    owner = owner.reshape(l2_tags.shape)[l2_live]
    law(((owner >= 0) & (owner < system.config.num_cores)).all(),
        "an L2-resident line has no owner among the cores")
    for i, l1 in enumerate(h.l1d):
        tags, live = _ways(l1)
        lines = (tags[live] << l1._off_bits) >> h.l2._off_bits
        rows = lines & h.l2._set_mask
        resident = ((l2_tags[rows] == lines[:, None]) & l2_live[rows]).any(1)
        law(resident.all(), f"core {i}: an L1 line is not resident in the L2")
    return broken


class MemoryLaws:
    """:func:`memory_state_violations` and
    :func:`native_state_violations` at every committed transaction (its
    cache-block laws at every :data:`BLOCK_STRIDE`-th), from ``system``'s
    ``dram.observers``."""

    def __init__(self, system: MultiCoreSystem) -> None:
        self.system = system
        self.commits = 0
        self.broken: list[str] = []
        system.dram.observers.append(self)

    def __call__(self, coord, timing, is_write, keep_open, conflict) -> None:
        self.commits += 1
        blocks = self.commits % BLOCK_STRIDE == 0
        for text in (memory_state_violations(self.system)
                     + native_state_violations(self.system, blocks)):
            self.broken.append(f"commit {self.commits}: {text}")


def violations(system: MultiCoreSystem) -> list[str]:
    """Every conservation law the finished ``system`` breaks."""
    h = system.hierarchy
    rob = system.config.core.rob_size
    broken = []
    law = _lawbook(broken)

    for i, core in enumerate(system.cores):
        s, l1, demand = core.stats, h.l1d[i].stats, h.demand_accesses[i]
        law(demand == s.loads + s.stores + s.structural_stalls,
            f"core {i}: demand {demand} != loads {s.loads} + stores "
            f"{s.stores} + structural stalls {s.structural_stalls}")
        law(l1.hits + l1.misses == demand,
            f"core {i}: L1 hits {l1.hits} + misses {l1.misses} != "
            f"demand {demand}")
        law(s.l1_hits + s.l2_hits <= s.loads,
            f"core {i}: load hits {s.l1_hits} + {s.l2_hits} > loads "
            f"{s.loads}")
        law(s.mem_requests <= h.mshrs[i].allocations,
            f"core {i}: mem requests {s.mem_requests} > MSHR allocations "
            f"{h.mshrs[i].allocations}")
        law(core.committed <= core.fetched <= core.committed + rob,
            f"core {i}: committed {core.committed}, fetched "
            f"{core.fetched}, ROB {rob}")
    l1_misses = sum(c.stats.misses for c in h.l1d)
    law(h.l2.stats.hits + h.l2.stats.misses == l1_misses,
        f"L2 hits {h.l2.stats.hits} + misses {h.l2.stats.misses} != "
        f"L1 misses {l1_misses}")
    allocations = sum(m.allocations for m in h.mshrs)
    law(allocations == sum(h.l2_misses),
        f"MSHR allocations {allocations} != L2 misses {sum(h.l2_misses)}")
    q, st = system.controller.queues, system.controller.stats
    law(allocations == sum(st.read_count) + len(q.reads),
        f"MSHR allocations {allocations} != {sum(st.read_count)} committed "
        f"+ {len(q.reads)} queued reads")
    law(h.writebacks == sum(st.write_count) + len(q.writes)
        + len(h._wb_overflow),
        f"writebacks {h.writebacks} != {sum(st.write_count)} committed + "
        f"{len(q.writes)} queued + {len(h._wb_overflow)} overflowed writes")
    broken += memory_state_violations(system)
    broken += native_state_violations(system)
    for laws in system.dram.observers:
        if isinstance(laws, MemoryLaws):
            broken += laws.broken
    return broken


def drain_violations(system: MultiCoreSystem) -> list[str]:
    """The write-drain hysteresis law, judged from the ``write_drain``
    events on the run's telemetry bus (each carries the queued
    ``writes``): drains begin and end in turn, one begins only with at
    least ``write_drain_high`` writes queued and ends only at or below
    ``write_drain_low``, and ``drain_entries`` counts the begins."""
    cfg = system.config.controller
    events = system.telemetry.bus.named("write_drain")
    broken: list[str] = []
    law = _lawbook(broken)
    for i, ev in enumerate(events):
        law(ev.kind == ("begin", "end")[i % 2],
            f"drain event {i} at cycle {ev.cycle} is a second {ev.kind}")
        if ev.kind == "begin":
            law(ev.args["writes"] >= cfg.write_drain_high,
                f"a drain began at cycle {ev.cycle} with "
                f"{ev.args['writes']} writes < {cfg.write_drain_high}")
        else:
            law(ev.args["writes"] <= cfg.write_drain_low,
                f"a drain ended at cycle {ev.cycle} with "
                f"{ev.args['writes']} writes > {cfg.write_drain_low}")
    begins = sum(ev.kind == "begin" for ev in events)
    law(system.controller.stats.drain_entries == begins,
        f"drain_entries {system.controller.stats.drain_entries} != "
        f"{begins} drains begun")
    law(system.controller.drain_mode == (len(events) % 2 == 1),
        "the drain mode is not the last drain event's")
    return broken


def _write_back_config(cores: int, **controller) -> SystemConfig:
    """A machine whose 128 KB L2 evicts dirty lines within the budgets
    here (``golden_writeback.json``'s), with ``controller`` fields set."""
    cfg = SystemConfig().with_cores(cores)
    l2 = replace(cfg.caches.l2, size_bytes=128 * 1024)
    return replace(cfg, caches=replace(cfg.caches, l2=l2),
                   controller=replace(cfg.controller, **controller))


class TestWriteDrain:
    """The hysteresis law on machines that drain: the write-back machine
    at the Table 1 watermarks, and a small buffer whose low watermarks
    make drains frequent."""

    @pytest.mark.parametrize("controller", [
        {},
        {"buffer_entries": 16, "write_drain_high": 6, "write_drain_low": 2},
    ], ids=["table1", "small-buffer"])
    def test_drains_obey_the_hysteresis(self, controller):
        apps = workload_by_name("4MEM-1").apps()
        system = run_system(apps, "HF-RF", 6000, WARMUP, SEED,
                            config=_write_back_config(4, **controller),
                            telemetry=Telemetry(sample_every=10**9))
        assert system.controller.stats.drain_entries > 0
        assert drain_violations(system) == []
        assert violations(system) == []


class TestGoldenConfigurations:
    """The laws on the golden files' runs."""

    def test_4mem_hf_rf(self):
        apps = workload_by_name("4MEM-1").apps()
        assert violations(run_system(apps, "HF-RF", BUDGET, WARMUP, SEED)) == []

    def test_4mem_me_lreq(self):
        apps = workload_by_name("4MEM-1").apps()
        me = [0.5, 1.5, 0.8, 2.0]
        system = run_system(apps, "ME-LREQ", BUDGET, WARMUP, SEED, me)
        assert violations(system) == []

    def test_2mix_rr(self):
        apps = workload_by_name("2MIX-1").apps()
        assert violations(run_system(apps, "RR", BUDGET, WARMUP, SEED)) == []

    def test_8mem_lreq(self):
        apps = workload_by_name("8MEM-1").apps()
        assert violations(run_system(apps, "LREQ", BUDGET, WARMUP, SEED)) == []

    @pytest.mark.parametrize("policy", ["RR", "LREQ", "BLISS", "CADS"])
    def test_4mem_memory_side(self, policy):
        apps = workload_by_name("4MEM-1").apps()
        system = run_system(apps, policy, BUDGET, WARMUP, SEED)
        (laws,) = system.dram.observers
        assert laws.commits > 1000
        assert violations(system) == []

    def test_write_back_machine(self):
        apps = workload_by_name("4MEM-1").apps()
        system = run_system(apps, "HF-RF", 6000, WARMUP, SEED,
                            config=_write_back_config(len(apps)))
        assert system.hierarchy.writebacks > 100
        assert violations(system) == []

    def test_a_drained_run_leaves_nothing_behind(self):
        ops = [[MemOp(gap=7, addr=(core * 64 + i) << 12, is_write=i % 3 == 0)
                for i in range(40)] for core in range(2)]
        system = run_traces(ops)
        q, h = system.controller.queues, system.hierarchy
        assert violations(system) == []
        assert q.occupancy == 0 and not q.reads and not q.writes
        assert list(q.pending_reads) == [0, 0]
        assert list(q.pending_writes) == [0, 0]
        assert not any(q.reads_by_ch) and not any(q.writes_by_ch)
        assert all(m.occupancy == 0 for m in h.mshrs)
        assert h._l2_outstanding == 0
        assert not any(m.store_pending for m in h.mshrs)
        assert sum(m.allocations for m in h.mshrs) == 80

    def test_the_laws_see_a_missing_charge(self):
        # The oracle itself: one uncounted demand reference breaks two laws.
        apps = workload_by_name("2MIX-1").apps()
        system = run_system(apps, "RR", 1000, 0, SEED)
        system.hierarchy.demand_accesses[1] += 1
        assert len(violations(system)) == 2

    def test_the_laws_see_a_missing_decrement(self):
        # A pending-read count one too high breaks its queue law.
        apps = workload_by_name("2MIX-1").apps()
        system = run_system(apps, "RR", 1000, 0, SEED)
        system.controller.queues.pending_reads[0] += 1
        (broken,) = violations(system)
        assert "pending_reads" in broken


@st.composite
def configurations(draw):
    cores = draw(st.sampled_from((1, 2, 4, 8)))
    if cores == 1:
        apps = (draw(st.sampled_from(APPS)),)
    else:
        apps = draw(st.sampled_from(mixes_for(cores))).apps()
    me = draw(st.lists(st.floats(0.1, 4.0), min_size=cores, max_size=cores))
    return (apps, draw(st.sampled_from(PAPER_POLICIES)),
            draw(st.integers(500, 3000)), draw(st.integers(0, 1500)),
            draw(st.integers(0, 50)), me)


class TestSmallConfigurations:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(configurations())
    def test_laws_hold(self, config):
        apps, policy, budget, warmup, seed, me = config
        system = run_system(apps, policy, budget, warmup, seed, me)
        assert violations(system) == []
