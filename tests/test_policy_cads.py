"""CADS: rank/adaptation unit behaviour + golden fingerprints.

Unit tests drive ``select_read`` against a hand-built scheduling context
so the least-attained-service ranking and the adaptive re-rank interval
(halve on skewed service, double on balanced service, clamped) of
arXiv:1907.07776 are checked boundary by boundary.  The golden section
pins one end-to-end run against ``tests/golden/golden_cads.json``
(float-hex exact; regenerate with ``REPRO_REGEN_GOLDEN=1``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import run_multicore, workload_by_name
from repro.config import DramTimingConfig, DramTopologyConfig
from repro.controller.queues import RequestQueues
from repro.controller.request import MemoryRequest
from repro.core import make_policy
from repro.core.policy import SchedulingContext
from repro.dram.dram_system import DramSystem
from repro.util.rng import RngStream

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_cads.json"

MIX = "4MEM-1"
SEED = 7
BUDGET = 2500
WARMUP = 2000


def make_ctx(num_cores=4, capacity=64):
    dram = DramSystem(DramTopologyConfig(), DramTimingConfig(), 64)
    queues = RequestQueues(capacity, num_cores)
    rng = RngStream(0, "test")
    return dram, queues, rng


def add_read(queues, dram, core, line, t=0):
    r = MemoryRequest(addr=line * 64, core_id=core, is_write=False,
                      arrival_cycle=t)
    r.coord = dram.coord(r.addr)
    queues.add(r)
    return r


def ctx_for(dram, queues, rng, channel=0, now=0):
    return SchedulingContext(now, channel, queues, dram, rng)


def make(num_cores=4, **kw):
    kw.setdefault("rank_interval", 1000)
    kw.setdefault("min_interval", 250)
    kw.setdefault("max_interval", 4000)
    p = make_policy("CADS", **kw)
    p.setup(num_cores, RngStream(0, "pol"))
    return p


class TestRanking:
    def test_least_served_core_ranks_highest(self):
        dram, queues, rng = make_ctx(num_cores=2)
        pol = make(num_cores=2)
        ctx = ctx_for(dram, queues, rng, now=0)
        # Within the first interval: serve core 0 three times, core 1 once.
        for core, line in ((0, 0), (0, 2), (0, 4), (1, 100)):
            r = add_read(queues, dram, core, line)
            assert pol.select_read([r], ctx) is r
            queues.remove(r)
        # Cross the boundary: core 1 (least served) must outrank core 0.
        late = ctx_for(dram, queues, rng, now=1000)
        a = add_read(queues, dram, 0, 6, t=0)      # older
        b = add_read(queues, dram, 1, 102, t=10)   # younger, higher rank
        assert pol.select_read([a, b], late) is b
        assert pol.rank_of(1) == 0
        assert pol.rank_of(0) == 1
        assert pol.rerank_count == 1

    def test_equal_ranks_fall_back_to_shared_tiebreak(self):
        dram, queues, rng = make_ctx(num_cores=2)
        pol = make(num_cores=2)
        ctx = ctx_for(dram, queues, rng, now=0)
        # Before any boundary, all ranks are 0: the two-level helper
        # tie-breaks through the shared RNG, then hit-first/oldest.
        a = add_read(queues, dram, 0, 0, t=0)
        b = add_read(queues, dram, 1, 100, t=0)
        assert pol.select_read([a, b], ctx) in (a, b)


class TestAdaptation:
    def test_skewed_service_halves_interval(self):
        dram, queues, rng = make_ctx(num_cores=2)
        pol = make(num_cores=2, imbalance_high=2.0)
        ctx = ctx_for(dram, queues, rng, now=0)
        for core, line in ((0, 0), (0, 2), (0, 4), (1, 100)):
            r = add_read(queues, dram, core, line)
            pol.select_read([r], ctx)
            queues.remove(r)
        r = add_read(queues, dram, 0, 6)
        pol.select_read([r], ctx_for(dram, queues, rng, now=1000))
        # imbalance 3/1 > 2.0 -> interval halves
        assert pol.current_interval == 500
        assert pol.shrink_count == 1

    def test_balanced_service_doubles_interval(self):
        dram, queues, rng = make_ctx(num_cores=2)
        pol = make(num_cores=2, imbalance_low=1.5)
        ctx = ctx_for(dram, queues, rng, now=0)
        for core, line in ((0, 0), (1, 100)):
            r = add_read(queues, dram, core, line)
            pol.select_read([r], ctx)
            queues.remove(r)
        r = add_read(queues, dram, 0, 6)
        pol.select_read([r], ctx_for(dram, queues, rng, now=1000))
        # imbalance 1/1 < 1.5 -> interval doubles
        assert pol.current_interval == 2000
        assert pol.grow_count == 1

    def test_interval_clamps_at_bounds(self):
        dram, queues, rng = make_ctx(num_cores=2)
        pol = make(num_cores=2, rank_interval=500, min_interval=250,
                   max_interval=1000, imbalance_high=2.0)
        ctx = ctx_for(dram, queues, rng, now=0)
        now = 0
        # Repeated skew: 500 -> 250 -> stays 250 (min clamp).
        for boundary in range(3):
            for core, line in ((0, 8 * boundary), (0, 8 * boundary + 2),
                               (0, 8 * boundary + 4)):
                r = add_read(queues, dram, core, line)
                pol.select_read([r], ctx_for(dram, queues, rng, now=now))
                queues.remove(r)
            now = pol._interval_end
            r = add_read(queues, dram, 1, 100 + 2 * boundary)
            pol.select_read([r], ctx_for(dram, queues, rng, now=now))
            queues.remove(r)
        assert pol.current_interval == 250

    def test_idle_interval_keeps_cadence(self):
        dram, queues, rng = make_ctx(num_cores=2)
        pol = make(num_cores=2)
        # No request served in intervals 1..3; boundaries are caught up
        # lazily with no adaptation.
        r = add_read(queues, dram, 0, 0)
        pol.select_read([r], ctx_for(dram, queues, rng, now=3500))
        assert pol.rerank_count == 3
        assert pol.current_interval == 1000
        assert pol.shrink_count == 0 and pol.grow_count == 0

    def test_reset_restores_initial_state(self):
        dram, queues, rng = make_ctx(num_cores=2)
        pol = make(num_cores=2, imbalance_high=2.0)
        ctx = ctx_for(dram, queues, rng, now=0)
        for core, line in ((0, 0), (0, 2), (0, 4)):
            r = add_read(queues, dram, core, line)
            pol.select_read([r], ctx)
            queues.remove(r)
        r = add_read(queues, dram, 0, 6)
        pol.select_read([r], ctx_for(dram, queues, rng, now=1000))
        assert pol.current_interval != 1000
        pol.reset()
        assert pol.current_interval == 1000
        assert pol.rerank_count == 0
        assert pol.rank_of(0) == 0 and pol.rank_of(1) == 0


class TestParameters:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_policy("CADS", rank_interval=100, min_interval=200,
                        max_interval=400)
        with pytest.raises(ValueError):
            make_policy("CADS", imbalance_high=1.0, imbalance_low=2.0)

    def test_hardware_cost_has_no_table(self):
        cost = make_policy("CADS").describe_hardware(8)
        assert cost.priority_table_bits == 0
        assert cost.per_core_bits > 0


# -- golden fingerprints -----------------------------------------------------


def _hex(x: float) -> str:
    return float(x).hex()


def _fingerprint() -> dict:
    result = run_multicore(
        workload_by_name(MIX), "CADS", inst_budget=BUDGET, seed=SEED,
        warmup_insts=WARMUP,
    )
    return {
        "mix": MIX,
        "seed": SEED,
        "budget": BUDGET,
        "warmup": WARMUP,
        "end_cycle": result.end_cycle,
        "row_hit_rate": _hex(result.row_hit_rate),
        "drain_entries": result.drain_entries,
        "per_core": [
            {
                "app": c.app,
                "ipc": _hex(c.ipc),
                "finish_cycle": c.finish_cycle,
                "reads": c.reads,
                "avg_read_latency": _hex(c.avg_read_latency),
                "bytes_total": c.bytes_total,
                "bw_gbps": _hex(c.bw_gbps),
            }
            for c in result.per_core
        ],
    }


def test_golden_cads_bit_identical():
    snap = _fingerprint()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(snap, indent=2) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert snap == golden, (
        "CADS statistics drifted from the golden snapshot"
    )
