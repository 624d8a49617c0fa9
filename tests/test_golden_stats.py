"""Golden end-of-run statistics: the bit-identity contract for optimizations.

Every performance optimization of the simulation kernel must leave the
simulated behaviour untouched — not "statistically equivalent", but
*bit-identical*.  This test pins a checked-in snapshot of end-of-run
statistics for one small fixed-seed configuration under each representative
policy family (HF-RF, ME-LREQ, RR, LREQ) and fails on any drift.

Floats are compared through ``float.hex()`` so the check is exact at the
bit level (JSON round-trips of decimal reprs are not trusted).

Regenerating the snapshot is a deliberate act — it means you claim the
simulated behaviour legitimately changed (a model fix, not an
optimization).  Run::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_stats.py

and explain the drift in the commit message.  See docs/PERFORMANCE.md
("The golden-stats contract").
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import run_multicore, workload_by_name
from repro.config import SystemConfig
from repro.core.registry import make_policy
from repro.metrics.memory_efficiency import MeProfiler
from repro.sim.system import MultiCoreSystem
from repro.workloads.synthetic import make_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_stats.json"

MIX = "4MEM-1"
SEED = 7
BUDGET = 2500
WARMUP = 2000
POLICIES = ("HF-RF", "ME-LREQ", "RR", "LREQ")


def _hex(x: float) -> str:
    return float(x).hex()


def _me_values(mix):
    profiler = MeProfiler(inst_budget=2000, seed=SEED)
    return profiler.me_values(mix)


def _run_fingerprint(policy: str) -> dict:
    """End-of-run statistics of one multicore run through the public path."""
    mix = workload_by_name(MIX)
    me = _me_values(mix) if policy == "ME-LREQ" else None
    result = run_multicore(
        mix, policy, inst_budget=BUDGET, seed=SEED,
        warmup_insts=WARMUP, me_values=me,
    )
    return {
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


def _deep_fingerprint() -> dict:
    """Internal counters of one assembled system (HF-RF), beyond RunResult.

    Catches drift that the run-level statistics could mask: event counts,
    per-bank row-buffer behaviour, cache/MSHR traffic, write drains.
    The engine counters (``events_processed``/``clamped_events``) are
    part of the fingerprint: the file was made by a heap-only engine, and
    the controller lanes must dispatch and count events exactly like it.
    """
    mix = workload_by_name(MIX)
    cfg = SystemConfig().with_cores(mix.num_cores)
    traces = [
        make_trace(app, SEED, "eval", core_id=i)
        for i, app in enumerate(mix.apps())
    ]
    system = MultiCoreSystem(
        cfg, make_policy("HF-RF"), traces, BUDGET,
        warmup_insts=WARMUP, seed=SEED,
    )
    system.run()
    st = system.controller.stats
    hier = system.hierarchy
    return {
        "engine": {
            "events_processed": system.engine.events_processed,
            "clamped_events": system.engine.clamped_events,
            "now": system.engine.now,
        },
        "dram": {
            "transactions": system.dram.total_transactions,
            "row_hits": system.dram.total_row_hits,
            "activations": system.dram.total_activations,
            "conflicts": sum(
                ch.total_conflicts for ch in system.dram.channels
            ),
            "data_cycles": [ch.data_cycles for ch in system.dram.channels],
            "writes": [ch.writes for ch in system.dram.channels],
        },
        "controller": {
            "read_count": list(st.read_count),
            "read_latency_sum": list(st.read_latency_sum),
            "read_latency_max": list(st.read_latency_max),
            "write_count": list(st.write_count),
            "bytes_read": list(st.bytes_read),
            "bytes_written": list(st.bytes_written),
            "read_row_hits": st.read_row_hits,
            "drain_entries": st.drain_entries,
        },
        "hierarchy": {
            "writebacks": hier.writebacks,
            "l2_misses": list(hier.l2_misses),
            "demand_accesses": list(hier.demand_accesses),
            "l2_hits": hier.l2.stats.hits,
            "l2_miss_count": hier.l2.stats.misses,
            "l2_evictions": hier.l2.stats.evictions,
            "l1_hits": [c.stats.hits for c in hier.l1d],
            "l1_misses": [c.stats.misses for c in hier.l1d],
            "mshr_allocations": [m.allocations for m in hier.mshrs],
            "mshr_merges": [m.merges for m in hier.mshrs],
        },
        "cores": {
            "committed": [c.committed for c in system.cores],
            "fetched": [c.fetched for c in system.cores],
            "stall_q": [c.stall_q for c in system.cores],
            "structural_stalls": [
                c.stats.structural_stalls for c in system.cores
            ],
            "loads": [c.stats.loads for c in system.cores],
            "stores": [c.stats.stores for c in system.cores],
        },
    }


def _current_snapshot() -> dict:
    return {
        "mix": MIX,
        "seed": SEED,
        "budget": BUDGET,
        "warmup": WARMUP,
        "runs": {p: _run_fingerprint(p) for p in POLICIES},
        "deep": _deep_fingerprint(),
    }


def _diff_paths(expected, actual, prefix=""):
    """Human-readable list of leaf paths where two JSON trees differ."""
    diffs = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for k in sorted(set(expected) | set(actual)):
            diffs += _diff_paths(
                expected.get(k), actual.get(k), f"{prefix}.{k}" if prefix else k
            )
    elif isinstance(expected, list) and isinstance(actual, list) and len(
        expected
    ) == len(actual):
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs += _diff_paths(e, a, f"{prefix}[{i}]")
    elif expected != actual:
        diffs.append(f"{prefix}: expected {expected!r}, got {actual!r}")
    return diffs


@pytest.fixture(scope="module")
def snapshot():
    return _current_snapshot()


def test_golden_snapshot_exists():
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — run with REPRO_REGEN_GOLDEN=1 to create it"
    )


def test_golden_stats_bit_identical(snapshot):
    snap = snapshot
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(snap, indent=2) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())
    diffs = _diff_paths(golden, snap)
    assert not diffs, (
        "simulation statistics drifted from the golden snapshot (an "
        "optimization changed simulated behaviour):\n  " + "\n  ".join(diffs[:40])
    )


def test_policies_distinguishable(snapshot):
    """Sanity: the four policies do not collapse onto identical outcomes
    (a snapshot of four identical runs would pin nothing)."""
    cycles = {p: snapshot["runs"][p]["end_cycle"] for p in POLICIES}
    assert len(set(cycles.values())) > 1, cycles
