"""The simulator names ``bench/`` wraps and reads exist.

``bench/ledger.py`` wraps entry points by qualified name before any
machine is built and reads counters off a finished machine; a rename
would otherwise surface only in the benchmark's own self-test.  This
checks each name it uses, and that the counters it reads are ints after
a small run.
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.config import SystemConfig
from repro.controller.fast import FastMemoryController
from repro.core.policy import SchedulingPolicy
from repro.core.registry import make_policy
from repro.cpu.core_model import TraceCore
from repro.metrics.memory_efficiency import MeProfiler
from repro.sim.system import MultiCoreSystem
from repro.workloads import synthetic, workload_by_name

#: (owner, attribute) pairs the ledger wraps
WRAPPED = [
    (synthetic.SyntheticApp, "next_op"),
    (synthetic, "_raw_trace"),
    *((TraceCore, a) for a in ("_wake", "_on_unblock", "_on_load_ready",
                               "_store_data_cb")),
    *((CacheHierarchy, a) for a in ("_after_l2_miss", "_on_fill",
                                    "_on_space_freed", "_emit_writeback",
                                    "_flush_writebacks")),
    *((FastMemoryController, a) for a in ("enqueue", "_fast_point",
                                          "_fast_deliver")),
    (SchedulingPolicy, "select_read"),
    (SchedulingPolicy, "select_write"),
    (MultiCoreSystem, "__init__"),
    (MultiCoreSystem, "run"),
    (MeProfiler, "profile"),
    (MeProfiler, "single_core_ipc"),
]


@pytest.mark.parametrize("owner, attr", WRAPPED,
                         ids=[f"{getattr(o, '__name__', o)}.{a}"
                              for o, a in WRAPPED])
def test_wrapped_name_exists(owner, attr):
    assert callable(getattr(owner, attr))


def test_counters_read_after_a_run_are_ints():
    mix = workload_by_name("2MEM-1")
    cfg = SystemConfig().with_cores(mix.num_cores)
    traces = [synthetic.make_trace(app, 1, "eval", core_id=i)
              for i, app in enumerate(mix.apps())]
    system = MultiCoreSystem(cfg, make_policy("HF-RF"), traces, 2000, seed=1)
    system.run()
    h = system.hierarchy
    values = [system.engine.events_processed, system.engine.now,
              system.dram.total_transactions, system.dram.total_row_hits,
              h.l2.stats.hits, h.l2.stats.misses]
    for core in system.cores:
        assert core._replay_ops is not None
        values += [core.committed, core.stats.structural_stalls,
                   core.stats.mem_ops, core._trace_pos]
    for l1 in h.l1d:
        values += [l1.stats.hits, l1.stats.misses]
    values += [ch.data_cycles for ch in system.dram.channels]
    assert all(type(v) is int for v in values), values
    assert system.engine.events_processed > 0 and h.l2.stats.misses > 0
