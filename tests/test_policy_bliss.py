"""BLISS: blacklist-threshold unit behaviour + golden fingerprints.

Unit tests drive ``select_read`` against a hand-built scheduling context
(a real controller's queues, staged through ``MemoryController.enqueue``,
and DRAM, no cores) so the blacklisting state machine of
arXiv:1504.00390 — streak counting, thresholding, periodic clearing and
the non-blacklisted > row-hit > oldest precedence — is checked decision
by decision.  The golden section pins one end-to-end run against
``tests/golden/golden_bliss.json`` (float-hex exact; regenerate with
``REPRO_REGEN_GOLDEN=1``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import run_multicore, workload_by_name
from repro.core import make_policy
from repro.core.policy import SchedulingContext
from repro.util.rng import RngStream
from tests.machine import make_controller, open_row, stage_read

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_bliss.json"

MIX = "4MEM-1"
SEED = 7
BUDGET = 2500
WARMUP = 2000


def make_ctx(num_cores=4):
    """Scheduling state: a controller whose queues hold the staged
    candidates, its DRAM, and the context's RNG."""
    engine, dram, ctrl = make_controller(num_cores=num_cores)
    return dram, ctrl, RngStream(0, "test")


def ctx_for(dram, ctrl, rng, channel=0, now=0):
    return SchedulingContext(now, channel, ctrl.queues, dram, rng)


def make(threshold=4, interval=10_000):
    p = make_policy("BLISS", blacklist_threshold=threshold,
                    clearing_interval=interval)
    p.setup(4, RngStream(0, "pol"))
    return p


class TestBlacklisting:
    def test_streak_at_threshold_blacklists(self):
        dram, ctrl, rng = make_ctx()
        reqs = [stage_read(ctrl, 0, i) for i in range(4)]
        lone = stage_read(ctrl, 1, 100)
        pol = make(threshold=3)
        ctx = ctx_for(dram, ctrl, rng)
        # Core 0 is oldest three times in a row -> blacklisted on the 3rd.
        for i in range(3):
            chosen = pol.select_read(reqs[i:] + [lone], ctx)
            assert chosen is reqs[i]
        assert pol.is_blacklisted(0)
        assert not pol.is_blacklisted(1)
        # Now core 1's younger request outranks core 0's remaining one.
        assert pol.select_read([reqs[3], lone], ctx) is lone

    def test_switching_cores_resets_streak(self):
        dram, ctrl, rng = make_ctx()
        a0 = stage_read(ctrl, 0, 0)
        b = stage_read(ctrl, 1, 1)
        a1 = stage_read(ctrl, 0, 2)
        pol = make(threshold=2)
        ctx = ctx_for(dram, ctrl, rng)
        # Served order by age: core0, core1, core0 — never two in a row.
        left = [a0, b, a1]
        for expect in (a0, b, a1):
            chosen = pol.select_read(left, ctx)
            assert chosen is expect
            left.remove(chosen)  # served
        assert not pol.is_blacklisted(0)
        assert not pol.is_blacklisted(1)

    def test_all_blacklisted_falls_back_to_hit_first_oldest(self):
        dram, ctrl, rng = make_ctx()
        reqs = [stage_read(ctrl, 0, i) for i in range(3)]
        pol = make(threshold=2)
        ctx = ctx_for(dram, ctrl, rng)
        pol.select_read(reqs, ctx)
        pol.select_read(reqs[1:], ctx)
        assert pol.is_blacklisted(0)
        # Only blacklisted candidates left: selection degrades gracefully.
        assert pol.select_read([reqs[2]], ctx) is reqs[2]

    def test_row_hit_preferred_within_non_blacklisted_pool(self):
        dram, ctrl, rng = make_ctx()
        older_miss = stage_read(ctrl, 0, 0)
        newer_hit = stage_read(ctrl, 1, 2)
        open_row(dram, newer_hit)
        pol = make()
        chosen = pol.select_read([older_miss, newer_hit],
                                 ctx_for(dram, ctrl, rng))
        assert chosen is newer_hit

    def test_blacklist_outranks_row_hit(self):
        dram, ctrl, rng = make_ctx()
        pol = make(threshold=1)  # every served request blacklists its core
        hot = [stage_read(ctrl, 0, 0, now=0),
               stage_read(ctrl, 0, 32, now=0)]  # same (ch0,bank0,row0)
        cold = stage_read(ctrl, 1, 2, now=5)
        ctx = ctx_for(dram, ctrl, rng)
        first = pol.select_read(hot + [cold], ctx)
        assert first is hot[0]
        open_row(dram, first)
        assert pol.is_blacklisted(0)
        # hot[1] is now a row hit, but core 0 is blacklisted: core 1 wins.
        assert ctx.is_row_hit(hot[1])
        assert pol.select_read([hot[1], cold], ctx) is cold


class TestClearing:
    def test_interval_clears_blacklist(self):
        dram, ctrl, rng = make_ctx()
        reqs = [stage_read(ctrl, 0, i) for i in range(3)]
        pol = make(threshold=2, interval=1000)
        ctx = ctx_for(dram, ctrl, rng, now=0)
        pol.select_read(reqs, ctx)
        pol.select_read(reqs[1:], ctx)
        assert pol.is_blacklisted(0)
        late = ctx_for(dram, ctrl, rng, now=1000)
        pol.select_read(reqs[2:], late)
        assert not pol.is_blacklisted(0)
        assert pol.clearings == 1

    def test_clearing_catches_up_over_skipped_periods(self):
        dram, ctrl, rng = make_ctx()
        r = stage_read(ctrl, 0, 0)
        pol = make(interval=1000)
        pol.select_read([r], ctx_for(dram, ctrl, rng, now=5500))
        # One wipe happened; the next boundary is on the fixed grid.
        assert pol.clearings == 1
        assert pol._next_clear == 6000

    def test_reset_clears_all_state(self):
        dram, ctrl, rng = make_ctx()
        reqs = [stage_read(ctrl, 0, i) for i in range(2)]
        pol = make(threshold=2)
        ctx = ctx_for(dram, ctrl, rng)
        pol.select_read(reqs, ctx)
        pol.select_read(reqs[1:], ctx)
        assert pol.is_blacklisted(0)
        pol.reset()
        assert not pol.is_blacklisted(0)
        assert pol.clearings == 0


class TestParameters:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_policy("BLISS", blacklist_threshold=0)
        with pytest.raises(ValueError):
            make_policy("BLISS", clearing_interval=0)

    def test_hardware_cost_is_one_bit_per_core(self):
        cost = make_policy("BLISS").describe_hardware(8)
        assert cost.priority_table_bits == 0
        assert cost.per_core_bits == 1


# -- golden fingerprints -----------------------------------------------------


def _hex(x: float) -> str:
    return float(x).hex()


def _fingerprint() -> dict:
    result = run_multicore(
        workload_by_name(MIX), "BLISS", inst_budget=BUDGET, seed=SEED,
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


def test_golden_bliss_bit_identical():
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
        "BLISS statistics drifted from the golden snapshot"
    )
