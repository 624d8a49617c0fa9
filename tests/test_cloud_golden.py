"""Golden cloud tail-latency table: the bit-identity contract for the
open-loop workload family.

Same deal as ``test_golden_stats.py``: the simulator must reproduce the
checked-in snapshot — per-request latencies in integer cycles,
SLO-violation attribution vectors, batch IPCs through ``float.hex()``,
and the rendered table byte for byte.  The rendered table must also be
byte-identical between serial execution and the ``--jobs 2`` cell
planner.

Regenerate deliberately (a model change, not an optimization)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cloud_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext, format_cloud, run_cloud_table
from repro.experiments.cloud import run_cloud
from repro.experiments.parallel import merge_into, plan_cells, run_cells
from repro.metrics.memory_efficiency import MeProfiler
from repro.workloads.cloud import cloud_mix_by_name

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_cloud.json"

MIXES = ("2CLD-1",)
POLICIES = ("FCFS", "HF-RF", "ME-LREQ")
BUDGET = 2000
WARMUP = 1500
PROFILE_BUDGET = 1000
SEEDS = (1,)


def _hex(x: float) -> str:
    return float(x).hex()


def small_ctx() -> ExperimentContext:
    return ExperimentContext(
        inst_budget=BUDGET, seeds=SEEDS, profile_budget=PROFILE_BUDGET,
        warmup_insts=WARMUP,
    )


def _batch_me(mix, seed: int):
    profiler = MeProfiler(inst_budget=PROFILE_BUDGET, seed=seed)
    return tuple(profiler.profile(app).me for app in mix.batch_apps())


def _run_detail(mix_name: str, policy: str) -> dict:
    mix = cloud_mix_by_name(mix_name)
    me = _batch_me(mix, SEEDS[0]) if policy.startswith("ME-") else None
    r = run_cloud(
        mix_name, policy, inst_budget=BUDGET, seed=SEEDS[0],
        warmup_insts=WARMUP, me_values=me,
    )
    return {
        "end_cycle": r.end_cycle,
        "row_hit_rate": _hex(r.row_hit_rate),
        "services": [
            {
                "code": s.code,
                "slo": s.slo,
                "requests": s.requests,
                "latencies": list(s.latencies),
                "viol_count": s.viol_count,
                "viol_latency_sum": s.viol_latency_sum,
                "viol_components": list(s.viol_components),
            }
            for s in r.services
        ],
        "batch": [
            {"app": b.app, "ipc": _hex(b.ipc), "reads": b.reads}
            for b in r.batch
        ],
    }


def _current_snapshot() -> dict:
    rows = run_cloud_table(small_ctx(), mixes=MIXES, policies=POLICIES)
    return {
        "mixes": list(MIXES),
        "seeds": list(SEEDS),
        "budget": BUDGET,
        "warmup": WARMUP,
        "profile_budget": PROFILE_BUDGET,
        "table": format_cloud(rows),
        "runs": {
            f"{m}:{p}": _run_detail(m, p)
            for m in MIXES for p in POLICIES
        },
    }


def _diff_paths(expected, actual, prefix=""):
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


def test_golden_cloud_bit_identical(snapshot):
    snap = snapshot
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(snap, indent=2) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())
    diffs = _diff_paths(golden, snap)
    assert not diffs, (
        "cloud statistics drifted from the golden snapshot:\n  " + "\n  ".join(diffs[:40])
    )


def test_attribution_conserved_in_golden(snapshot):
    """The committed numbers themselves satisfy the conservation law."""
    for detail in snapshot["runs"].values():
        for svc in detail["services"]:
            expected = sum(
                lat for lat in svc["latencies"] if lat > svc["slo"]
            )
            assert svc["viol_latency_sum"] == expected
            assert sum(svc["viol_components"]) == svc["viol_latency_sum"]


def test_policies_distinguishable(snapshot):
    cycles = {k: d["end_cycle"] for k, d in snapshot["runs"].items()}
    assert len(set(cycles.values())) > 1, cycles


def test_parallel_prewarm_is_byte_identical():
    serial_table = format_cloud(
        run_cloud_table(small_ctx(), mixes=MIXES, policies=POLICIES)
    )

    ctx = small_ctx()
    cells = plan_cells(ctx, cloud=(MIXES, POLICIES))
    kinds = {c.key.kind for c in cells}
    assert "cloud" in kinds
    clouds = [c for c in cells if c.key.kind == "cloud"]
    assert len(clouds) == len(MIXES) * len(POLICIES) * len(SEEDS)
    report = run_cells(cells, jobs=2)
    assert not report.failures, report.failure_report()
    merge_into(ctx, report)
    parallel_table = format_cloud(
        run_cloud_table(ctx, mixes=MIXES, policies=POLICIES)
    )

    assert parallel_table == serial_table
