"""Test-only machines assembled from the simulator's running code.

The memory model runs once: the controller's ``enqueue`` and scheduling
point, the hierarchy's miss and fill paths (``_after_l2_miss``,
``_on_fill``) and the core kernel's hit paths.  Unit tests build the
pieces those paths need here and drive them, so they judge the copy
that runs:

* :func:`make_controller` — engine, DRAM and controller;
* :func:`make_stack` — the same plus the cache hierarchy;
* :class:`DramRig` — a controller whose committed transactions are
  recorded from ``dram.observers``, for DRAM timing tests;
* :func:`run_traces` — a whole :class:`MultiCoreSystem` over one
  :class:`ListTrace` per core, for the kernel's cache hit paths;
* :func:`ops` — the first ops of any trace source, read through its
  checked ``columns``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.cache.hierarchy import CacheHierarchy
from repro.config import SystemConfig
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest
from repro.core import make_policy
from repro.cpu.trace import ListTrace, MemOp
from repro.cpu.trace_io import record_trace
from repro.dram.address import DramCoord
from repro.dram.channel import TransactionTiming
from repro.dram.dram_system import DramSystem
from repro.sim.engine import EventEngine
from repro.sim.system import MultiCoreSystem
from repro.util.rng import RngStream


def controller_config(cfg: SystemConfig, **fields) -> SystemConfig:
    """``cfg`` with its controller fields replaced."""
    return replace(cfg, controller=replace(cfg.controller, **fields))


def timing_config(cfg: SystemConfig, **fields) -> SystemConfig:
    """``cfg`` with its DRAM timing fields replaced."""
    return replace(cfg, dram_timing=replace(cfg.dram_timing, **fields))


def make_controller(policy="HF-RF", num_cores=2, *, config=None, seed=7):
    """``(engine, dram, ctrl)`` over ``config`` (Table 1 by default),
    scheduling with ``policy``: a registered name or a policy object."""
    cfg = config if config is not None else SystemConfig(num_cores=num_cores)
    engine = EventEngine()
    dram = DramSystem(cfg.dram_topology, cfg.dram_timing, cfg.line_bytes)
    if isinstance(policy, str):
        policy = make_policy(policy)
    ctrl = MemoryController(
        cfg.controller, dram, policy, num_cores, engine, RngStream(seed, "t"),
        line_bytes=cfg.line_bytes,
    )
    return engine, dram, ctrl


def make_stack(num_cores=2, buffer_entries=64, *, config=None):
    """``(cfg, engine, ctrl, hier)``: an HF-RF controller with a
    ``buffer_entries``-deep buffer and the cache hierarchy over it."""
    cfg = config if config is not None else SystemConfig(num_cores=num_cores)
    cfg = controller_config(
        cfg,
        buffer_entries=buffer_entries,
        write_drain_high=max(buffer_entries // 2, 1),
        write_drain_low=max(buffer_entries // 4, 0),
    )
    engine, _, ctrl = make_controller(num_cores=num_cores, config=cfg, seed=0)
    return cfg, engine, ctrl, CacheHierarchy(cfg, ctrl, num_cores)


def read(addr, core=0, done=None) -> MemoryRequest:
    return MemoryRequest(
        addr=addr, core_id=core, is_write=False, arrival_cycle=0, on_complete=done
    )


def write(addr, core=0) -> MemoryRequest:
    return MemoryRequest(addr=addr, core_id=core, is_write=True, arrival_cycle=0)


def stage_read(ctrl, core, line, now=0) -> MemoryRequest:
    """Enqueue a read of ``line`` (a line index) at cycle ``now``; the
    engine does not run, so it stays queued as a policy candidate."""
    r = read(line * ctrl.line_bytes, core)
    assert ctrl.enqueue(r, now)
    return r


def open_row(dram, req) -> None:
    """Latch ``req``'s row in its bank, as a kept-open access would."""
    dram.channels[req.coord.channel].open_row[req.bank] = req.row


class Transaction(NamedTuple):
    """One transaction the controller committed, as a ``dram.observers``
    subscriber saw it."""

    coord: DramCoord
    timing: TransactionTiming
    is_write: bool
    keep_open: bool


def record_transactions(dram) -> list[Transaction]:
    """Subscribe to ``dram.observers``: the returned list fills with every
    committed transaction, in commit order."""
    log: list[Transaction] = []
    dram.observers.append(
        lambda coord, t, is_write, keep_open, conflict: log.append(
            Transaction(coord, t, is_write, keep_open)))
    return log


class DramRig:
    """A one-core controller over the Table 1 DRAM whose transactions are
    recorded: :meth:`post` enqueues at a cycle, :meth:`run` lets the
    scheduling points commit, :meth:`issue` does both for one request."""

    def __init__(self, config=None, *, page_policy="closed"):
        cfg = config if config is not None else SystemConfig(num_cores=1)
        cfg = controller_config(cfg, page_policy=page_policy)
        self.engine, self.dram, self.ctrl = make_controller(
            num_cores=1, config=cfg
        )
        self.log = record_transactions(self.dram)

    def addr(self, bank, row, *, channel=0, col=0) -> int:
        return self.dram.mapper.encode(DramCoord(channel, bank, row, col))

    def post(self, bank, row, now, *, is_write=False, channel=0, col=0):
        addr = self.addr(bank, row, channel=channel, col=col)
        req = write(addr) if is_write else read(addr)
        assert self.ctrl.enqueue(req, now)
        return req

    def run(self) -> list[TransactionTiming]:
        """Run until idle; the timings committed by this call, in order."""
        start = len(self.log)
        self.engine.run()
        return [tr.timing for tr in self.log[start:]]

    def issue(self, bank, row, now, **kw) -> TransactionTiming:
        self.post(bank, row, now, **kw)
        (t,) = self.run()
        return t


#: instructions between two trace references that leave the first one's
#: fill installed before the second is fetched: 1 000 cycles at 4-issue,
#: past a closed-bank round trip plus the core's 256-cycle fetch lookahead
SETTLE = 4000


def run_traces(op_lists, *, config=None) -> MultiCoreSystem:
    """Run one :class:`ListTrace` of ``MemOp`` records per core, until
    :data:`SETTLE` instructions past the end of the longest trace so its
    last fills land, and return the machine (not closed), so its caches
    and counters can be read."""
    traces = [ListTrace(ops) for ops in op_lists]
    cfg = config if config is not None else SystemConfig(num_cores=len(traces))
    target = max(t.total_instructions for t in traces) + SETTLE
    system = MultiCoreSystem(cfg, make_policy("HF-RF"), traces, target)
    system.run()
    return system


def ops(trace, n) -> list[MemOp]:
    """The first ``n`` ops of a fresh ``trace`` (fewer if it ends first),
    read by :func:`~repro.cpu.trace_io.record_trace`, with every window
    ``trace.columns`` serves checked the way the core kernel checks it:
    typed columns that hold the op asked for."""

    class Checked:
        def columns(self, pos):
            cols = trace.columns(pos)
            if cols is not None:
                gaps, addrs, writes, base = cols
                assert tuple(memoryview(c).format for c in cols[:3]) == (
                    "q", "q", "B")
                assert base <= pos < base + min(map(len, cols[:3]))
            return cols

    return record_trace(Checked(), n)
