"""Determinism contract of the parallel sharded experiment runner.

Three guarantees, each pinned here:

* sharding cells over worker processes (``jobs`` 2..4) produces figure
  tables equal to the serial path, element for element;
* the parallel execution path reproduces the checked-in golden
  float-hex fingerprints (``tests/golden/golden_stats.json``) exactly —
  the bit-identity contract extends to worker processes;
* a cache hit returns the identical result without re-simulating.

It also checks that the local path (package, experiment layer, CLI)
never imports asyncio, which only the service verbs need.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import SystemConfig
from repro.core.registry import reads_me
from repro.experiments.cache import ResultCache
from repro.experiments.cells import Cell, eval_cell_key, profile_cell_key
from repro.experiments.figure2 import run_figure2
from repro.experiments.harness import ExperimentContext
from repro.experiments.parallel import merge_into, plan_cells, run_cells
from repro.workloads.mixes import workload_by_name

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_stats.json"

# Small budgets keep the determinism checks fast; bit-identity does not
# depend on run length.
BUDGET = 300
WARMUP = 200
PROFILE = 200
SEED = 7


def _ctx(**overrides) -> ExperimentContext:
    kw = dict(inst_budget=BUDGET, warmup_insts=WARMUP,
              profile_budget=PROFILE, seeds=(SEED,))
    kw.update(overrides)
    return ExperimentContext(**kw)


def _figure2_rows(ctx):
    return run_figure2(ctx, core_counts=(2,), groups=("MEM",))


@pytest.fixture(scope="module")
def serial_rows():
    return _figure2_rows(_ctx())


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_figure2_matches_serial(serial_rows, jobs):
    ctx = _ctx()
    cells = plan_cells(ctx, figure2=((2,), ("MEM",)))
    report = run_cells(cells, jobs=jobs)
    assert not report.failures, report.failure_report()
    merge_into(ctx, report)
    rows = _figure2_rows(ctx)
    assert rows == serial_rows
    # every cell came from the prewarm, none from in-section simulation
    assert report.executed == len(cells)


def test_merge_order_is_key_order_not_completion_order(serial_rows):
    """Shuffling the submitted cell order must not change anything:
    results are merged in canonical key order by construction."""
    ctx = _ctx()
    cells = plan_cells(ctx, figure2=((2,), ("MEM",)))
    report = run_cells(list(reversed(cells)), jobs=2)
    assert list(report.results) == sorted(
        report.results, key=lambda k: k.key_str()
    )
    merge_into(ctx, report)
    assert _figure2_rows(ctx) == serial_rows


def test_merged_results_planned_under_other_budgets_are_never_served():
    """A report planned under another ``inst_budget`` merges under keys
    this context never builds, so its runs are computed afresh."""
    other = _ctx(inst_budget=BUDGET + 100)
    cells = [c for c in plan_cells(other, figure2=((2,), ("MEM",)))
             if c.key.kind != "eval" or c.key.workload == "2MEM-1"]
    report = run_cells(cells, jobs=1)
    stale = {k.policy: v for k, v in report.results.items()
             if k.kind == "eval"}

    ctx = _ctx()
    merge_into(ctx, report)
    fresh = _ctx()
    for policy in ("HF-RF", "ME-LREQ"):
        want = fresh.run("2MEM-1", policy, SEED)
        assert stale[policy] != want
        assert ctx.run("2MEM-1", policy, SEED) == want


def test_the_ablation_plan_covers_every_ablation_run():
    """After the planned ablation cells are merged, the four ablations
    simulate nothing more and return what a fresh serial context does."""
    from repro.experiments import (
        ablation_lookahead,
        ablation_page_policy,
        ablation_table_bits,
        ablation_write_drain,
    )

    kw = dict(inst_budget=500, warmup_insts=500, profile_budget=500,
              seeds=(1,))
    ctx = ExperimentContext(**kw)
    merge_into(ctx, run_cells(plan_cells(ctx, ablations=True), jobs=1))
    planned = dict(ctx.memo)
    serial = ExperimentContext(**kw)
    for ablation in (ablation_table_bits, ablation_page_policy,
                     ablation_write_drain, ablation_lookahead):
        assert ablation(ctx) == ablation(serial), ablation.__name__
    assert ctx.memo == planned


def test_parallel_reproduces_golden_fingerprints():
    """Worker-process results must match the checked-in golden stats
    (same float bits, compared through ``float.hex``)."""
    golden = json.loads(GOLDEN_PATH.read_text())["runs"]
    cfg = SystemConfig()
    mix = workload_by_name("4MEM-1")
    cells: list[Cell] = []
    for policy in ("HF-RF", "ME-LREQ", "RR", "LREQ"):
        key = eval_cell_key(mix.name, policy, 7, 2500, 2000, 256, cfg, 2000)
        deps = ()
        if reads_me(policy):
            deps = tuple(profile_cell_key(c, 7, 2000, cfg)
                         for c in mix.codes)
            cells.extend(Cell(key=d, config=cfg) for d in deps)
        cells.append(Cell(key=key, config=cfg, me_deps=deps))
    report = run_cells(cells, jobs=2)
    assert not report.failures, report.failure_report()
    by_policy = {k.policy: v for k, v in report.results.items()
                 if k.kind == "eval"}
    for policy, want in golden.items():
        got = by_policy[policy]
        assert got.end_cycle == want["end_cycle"], policy
        assert got.row_hit_rate.hex() == want["row_hit_rate"], policy
        assert got.drain_entries == want["drain_entries"], policy
        for core, w in zip(got.per_core, want["per_core"]):
            assert core.app == w["app"]
            assert core.ipc.hex() == w["ipc"]
            assert core.finish_cycle == w["finish_cycle"]
            assert core.reads == w["reads"]
            assert core.avg_read_latency.hex() == w["avg_read_latency"]
            assert core.bytes_total == w["bytes_total"]
            assert core.bw_gbps.hex() == w["bw_gbps"]


def test_cache_hits_return_identical_results_without_resimulating(
    tmp_path, serial_rows
):
    cells_ctx = _ctx()
    cells = plan_cells(cells_ctx, figure2=((2,), ("MEM",)))

    first = ResultCache(root=tmp_path, mode="rw")
    warm = run_cells(cells, jobs=2, cache=first)
    assert warm.executed == len(cells) and warm.cache_hits == 0

    second = ResultCache(root=tmp_path, mode="rw")
    ctx = _ctx(cache=second)
    report = run_cells(cells, jobs=2, cache=second)
    assert report.executed == 0
    assert report.cache_hits == len(cells)
    assert second.stats.hits == len(cells)
    assert second.stats.misses == 0
    assert report.results == warm.results  # bit-exact payload round-trip
    merge_into(ctx, report)
    assert _figure2_rows(ctx) == serial_rows


def test_write_mode_never_reads_but_leaves_resumable_trail(tmp_path):
    all_cells = plan_cells(_ctx(), figure2=((2,), ("MEM",)))
    cells = [c for c in all_cells if c.key.policy == "HF-RF"][:3]
    cache = ResultCache(root=tmp_path, mode="write")
    rep = run_cells(cells, jobs=1, cache=cache)
    assert rep.executed == len(cells)
    assert cache.stats.writes == len(cells)

    again = ResultCache(root=tmp_path, mode="write")
    rep2 = run_cells(cells, jobs=1, cache=again)
    assert rep2.cache_hits == 0 and rep2.executed == len(cells)

    resumed = ResultCache(root=tmp_path, mode="rw")
    rep3 = run_cells(cells, jobs=1, cache=resumed)
    assert rep3.cache_hits == len(cells) and rep3.executed == 0
    assert rep3.results == rep.results


def test_progress_events_on_bus():
    from repro.telemetry.bus import TelemetryBus

    bus = TelemetryBus()
    all_cells = plan_cells(_ctx(), figure2=((2,), ("MEM",)))
    cells = [c for c in all_cells if c.key.policy == "HF-RF"][:4]
    run_cells(cells, jobs=1, bus=bus)
    done = bus.named("experiment.cell")
    assert len(done) == len(cells)
    assert [e.args["done"] for e in done] == list(range(1, len(cells) + 1))
    assert all(e.args["total"] == len(cells) for e in done)
    assert all(e.args["status"] == "run" for e in done)
    stats = bus.named("experiment.cache")
    assert len(stats) == 1


def test_run_cells_leaves_the_environment_alone():
    """``run_cells`` is a library call: a pooled sweep sets no
    environment variable in the calling process while it runs."""
    from repro.telemetry.bus import TelemetryBus

    before = dict(os.environ)
    seen = []
    bus = TelemetryBus()
    bus.subscribe(lambda ev: seen.append(dict(os.environ))
                  if ev.name == "experiment.cell" else None)
    cells = [c for c in plan_cells(_ctx(), figure2=((2,), ("MEM",)))
             if c.key.policy == "HF-RF"][:2]
    run_cells(cells, jobs=2, bus=bus)
    assert len(seen) == len(cells)
    assert all(env == before for env in seen)


def test_local_path_never_loads_asyncio():
    """Only the service verbs need an event loop: importing the package,
    the experiment layer (whose pool runs on the coordinator's task
    board) and the CLI must not pull asyncio in."""
    src = Path(repro.__file__).resolve().parents[1]
    code = ("import sys, repro, repro.experiments, repro.cli; "
            "print('asyncio' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "False"
