"""Tests for the optional DRAM refresh model."""

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import DramTimingConfig, SystemConfig
from repro.core import make_policy
from repro.cpu.trace import ListTrace, MemOp
from repro.dram.channel import Channel
from repro.dram.refresh import T_REFI, T_RFC, RefreshScheduler
from repro.sim.system import MultiCoreSystem
from repro.workloads.mixes import workload_by_name
from repro.workloads.synthetic import make_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_refresh.json"


class TestScheduler:
    def test_constants_scale(self):
        # 7.8 us at 3.2 GHz = 24960 cycles; 127.5 ns = 408 cycles
        assert T_REFI == 24960
        assert T_RFC == 408

    def test_no_refresh_before_first_window(self):
        ch = Channel(0, 4, DramTimingConfig())
        sched = RefreshScheduler(1)
        assert sched.advance(0, ch, 100) == 100
        assert sched.refreshes_issued == 0

    def test_refresh_blocks_channel_and_closes_rows(self):
        timing = DramTimingConfig()
        ch = Channel(0, 4, timing)
        ch.execute(0, row=3, now=0, is_write=False, keep_open=True)
        sched = RefreshScheduler(1, t_refi=1000, t_rfc=100)
        usable = sched.advance(0, ch, 1000)
        assert usable >= 1100
        assert sched.refreshes_issued == 1
        assert all(b.open_row is None for b in ch.banks)
        assert all(b.ready_cycle >= usable for b in ch.banks)

    def test_catches_up_on_overdue_refreshes(self):
        ch = Channel(0, 2, DramTimingConfig())
        sched = RefreshScheduler(1, t_refi=1000, t_rfc=100)
        sched.advance(0, ch, 3500)  # three windows overdue
        assert sched.refreshes_issued == 3
        assert sched.next_refresh(0) == 4000

    def test_channels_staggered(self):
        sched = RefreshScheduler(2, t_refi=1000, t_rfc=100)
        assert sched.next_refresh(0) != sched.next_refresh(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RefreshScheduler(1, t_refi=10, t_rfc=100)


class TestEndToEnd:
    def test_refresh_slows_execution_slightly(self):
        ops = [MemOp(5, (i * 37 % 512) << 13) for i in range(800)]
        results = {}
        for enabled in (False, True):
            cfg = SystemConfig(num_cores=1)
            cfg = replace(
                cfg, controller=replace(cfg.controller, refresh_enabled=enabled)
            )
            sys_ = MultiCoreSystem(
                cfg, make_policy("HF-RF"), [ListTrace(list(ops))], 4000
            )
            sys_.run()
            results[enabled] = sys_.cores[0].finish_cycle
        assert results[True] >= results[False]
        # refresh overhead is small: well under 10 %
        assert results[True] <= results[False] * 1.10


def refresh_fingerprint() -> dict:
    """End-of-run counters of a 4-core run that crosses refresh windows
    on both channels."""
    mix = workload_by_name("4MEM-1")
    base = SystemConfig().with_cores(mix.num_cores)
    cfg = replace(base, controller=replace(base.controller, refresh_enabled=True))
    traces = [
        make_trace(app, 7, "eval", core_id=i) for i, app in enumerate(mix.apps())
    ]
    system = MultiCoreSystem(
        cfg, make_policy("HF-RF"), traces, 6000, warmup_insts=2000, seed=7
    )
    system.run()
    st = system.controller.stats
    return {
        "end_cycle": system.end_cycle,
        "refreshes_issued": system.controller.refresh.refreshes_issued,
        "events_processed": system.engine.events_processed,
        "transactions": system.dram.total_transactions,
        "row_hits": system.dram.total_row_hits,
        "activations": system.dram.total_activations,
        "finish_cycles": [c.finish_cycle for c in system.cores],
        "read_count": list(st.read_count),
        "read_latency_sum": list(st.read_latency_sum),
        "write_count": list(st.write_count),
        "drain_entries": st.drain_entries,
    }


class TestGolden:
    def test_refresh_run_bit_identical(self):
        """Pinned from the Bank-object engine refresh first ran on; the
        array-backed port must reproduce it exactly."""
        snap = refresh_fingerprint()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.write_text(json.dumps(snap, indent=2) + "\n")
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        assert snap["refreshes_issued"] >= 2
        assert snap == json.loads(GOLDEN_PATH.read_text())
