"""Robustness of the parallel runner: crashes, resume, corruption.

* a worker that raises is retried once, then reported with its cell key
  — the pool never hangs;
* a profile cell that fails for good does not sink the cells that read
  its ME value: they profile in-process, bit-identically;
* one sweep builds one process pool;
* an interrupted run resumes from the on-disk cache, completing only the
  missing cells;
* a corrupted / truncated cache entry is detected (payload digest
  mismatch) and recomputed, never trusted;
* entries written by a different code revision are treated as stale.

Fault injection goes through the ``REPRO_PARALLEL_FAULT*`` env hooks in
:mod:`repro.experiments.cells` (they match a substring of the cell key
and only exist for these tests).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.cells import CellFault, execute_cell
from repro.experiments.harness import ExperimentContext
from repro.experiments.parallel import plan_cells, run_cells

BUDGET = 300
WARMUP = 200
PROFILE = 200
SEED = 7


def _ctx(**overrides) -> ExperimentContext:
    kw = dict(inst_budget=BUDGET, warmup_insts=WARMUP,
              profile_budget=PROFILE, seeds=(SEED,))
    kw.update(overrides)
    return ExperimentContext(**kw)


@pytest.fixture()
def cells():
    all_cells = plan_cells(_ctx(), figure2=((2,), ("MEM",)))
    # two eval cells plus the two single-core baselines behind them
    return [c for c in all_cells
            if c.key.workload in ("2MEM-1", "b", "c")
            and c.key.policy in ("HF-RF", "LREQ", "")]


def _fault_key(cells):
    """Pick one eval cell to sabotage; returns (cell, unique substring)."""
    target = next(c for c in cells if c.key.kind == "eval")
    return target, target.key.key_str()


def test_fault_hook_raises(monkeypatch, cells):
    target, pattern = _fault_key(cells)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    with pytest.raises(CellFault):
        execute_cell(target, attempt=0)
    # the retry attempt is clean unless FAULT_ALWAYS is set
    result = execute_cell(target, attempt=1)
    assert result is not None


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashed_cell_is_retried_once_and_succeeds(monkeypatch, cells, jobs):
    target, pattern = _fault_key(cells)
    baseline = run_cells(cells, jobs=1)

    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    report = run_cells(cells, jobs=jobs)
    assert not report.failures, report.failure_report()
    assert pattern in report.retried
    assert report.results == baseline.results


def test_persistent_crash_is_reported_with_cell_key(monkeypatch, cells):
    target, pattern = _fault_key(cells)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_ALWAYS", "1")
    report = run_cells(cells, jobs=2)
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.key_str == pattern
    assert failure.attempts == 2
    assert "CellFault" in failure.error
    assert target.key not in report.results
    # every other cell still completed
    assert len(report.results) == len(cells) - 1
    assert pattern in report.failure_report()


def test_hard_worker_crash_falls_back_serially(monkeypatch, cells):
    """A worker dying without raising (os._exit) breaks the pool; the
    runner must finish the round in-parent instead of hanging."""
    target, pattern = _fault_key(cells)
    baseline = run_cells(cells, jobs=1)

    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_KIND", "exit")
    report = run_cells(cells, jobs=2)
    assert report.pool_broken
    assert not report.failures, report.failure_report()
    assert report.results == baseline.results


def test_parent_never_runs_a_first_attempt_after_the_pool_breaks(
        monkeypatch, cells):
    """Every cell hard-kills its process on attempt 0: the pool breaks on
    the first cells it runs, and the parent finishes the rest without
    running any cell's first attempt (that would kill the parent)."""
    baseline = run_cells(cells, jobs=1)

    monkeypatch.setenv("REPRO_PARALLEL_FAULT", f"seed={SEED}")
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_KIND", "exit")
    report = run_cells(cells, jobs=2)
    assert report.pool_broken
    assert not report.failures, report.failure_report()
    assert report.results == baseline.results


def _mix_cells():
    """The 2MEM-1 panel cells: every policy, with their profiles and
    baselines (ME and ME-LREQ read the profiles of apps b and c)."""
    return [c for c in plan_cells(_ctx(), figure2=((2,), ("MEM",)))
            if c.key.workload in ("2MEM-1", "b", "c")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_profile_does_not_sink_its_dependents(monkeypatch, jobs):
    cells = _mix_cells()
    baseline = run_cells(cells, jobs=1)
    profile = next(c for c in cells if c.key.kind == "profile")
    dependents = [c for c in cells if profile.key in c.me_deps]
    assert dependents

    monkeypatch.setenv("REPRO_PARALLEL_FAULT", profile.key.key_str())
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_ALWAYS", "1")
    report = run_cells(cells, jobs=jobs)
    assert [f.key_str for f in report.failures] == [profile.key.key_str()]
    for cell in cells:
        if cell.key.kind == "eval":
            assert report.results[cell.key] == baseline.results[cell.key]


def test_one_sweep_builds_one_pool(monkeypatch):
    built = []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    cells = _mix_cells()
    assert {c.key.kind for c in cells} == {"profile", "single", "eval"}
    report = run_cells(cells, jobs=2)
    assert not report.failures, report.failure_report()
    assert len(built) == 1


def test_interrupted_run_resumes_only_missing_cells(tmp_path, cells):
    # "interrupt" after a prefix of the work: only some cells got cached
    done = cells[: len(cells) // 2]
    first = ResultCache(root=tmp_path, mode="rw")
    run_cells(done, jobs=1, cache=first)
    assert first.stats.writes == len(done)

    resumed = ResultCache(root=tmp_path, mode="rw")
    report = run_cells(cells, jobs=2, cache=resumed)
    assert report.cache_hits == len(done)
    assert report.executed == len(cells) - len(done)
    assert len(report.results) == len(cells)

    # and the completed trail makes a third pass simulation-free
    final = ResultCache(root=tmp_path, mode="rw")
    again = run_cells(cells, jobs=1, cache=final)
    assert again.executed == 0 and again.cache_hits == len(cells)


def test_corrupted_cache_entry_is_recomputed(tmp_path, cells):
    pristine = ResultCache(root=tmp_path, mode="rw")
    baseline = run_cells(cells, jobs=1, cache=pristine)

    entries = sorted(tmp_path.glob("*.json"))
    assert len(entries) == len(cells)
    # flip a payload bit in one entry, truncate another
    doc = json.loads(entries[0].read_text())
    doc["payload"]["end_cycle"] = doc["payload"].get("end_cycle", 0) + 1
    entries[0].write_text(json.dumps(doc))
    entries[1].write_text(entries[1].read_text()[: 40])

    cache = ResultCache(root=tmp_path, mode="rw")
    report = run_cells(cells, jobs=1, cache=cache)
    assert cache.stats.corrupt == 2
    assert report.executed == 2  # only the damaged entries re-simulate
    assert report.cache_hits == len(cells) - 2
    assert report.results == baseline.results

    # the recompute healed the damaged entries on disk
    healed = ResultCache(root=tmp_path, mode="rw")
    again = run_cells(cells, jobs=1, cache=healed)
    assert again.cache_hits == len(cells) and healed.stats.corrupt == 0


def test_stale_code_fingerprint_invalidates(tmp_path, monkeypatch, cells):
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "rev-a")
    run_cells(cells, jobs=1, cache=ResultCache(root=tmp_path, mode="rw"))

    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "rev-b")
    cache = ResultCache(root=tmp_path, mode="rw")
    report = run_cells(cells, jobs=1, cache=cache)
    assert cache.stats.stale == len(cells)
    assert report.executed == len(cells) and report.cache_hits == 0
