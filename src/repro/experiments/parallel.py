"""Parallel sharded experiment runner with a bit-identical merge.

A full regeneration of the paper's figures is embarrassingly parallel:
every simulation cell is a pure function of ``(config, workload, policy,
seed)``.  This module

1. **plans** the exact cell set behind the figure/table harnesses
   (:func:`plan_cells` — eval cells plus the profile / single-core cells
   their outcomes need),
2. **shards** the cells across ``jobs`` worker processes
   (:func:`run_cells` — with an on-disk :class:`ResultCache`
   read-through, one retry per crashed cell, and a broken-pool fallback
   that finishes the round serially instead of hanging), and
3. **merges** the results into an :class:`ExperimentContext`
   (:func:`merge_into` — insertion in canonical cell-key order, never
   completion order).

After the merge, the serial harness code (``run_figure2`` …) runs
unchanged and finds every simulation memoised, so the emitted tables are
*bit-identical* to a serial run by construction: the same code computes
every derived number from the same per-cell results.

Scheduling runs in two rounds — single-core cells (profiles and
speedup baselines) first, then multi-core cells — because ME-family
policies consume the profiled ME vector; the scheduler resolves those
values from round one and ships them with the cell, so workers never
re-profile.

Progress: pass a :class:`~repro.telemetry.bus.TelemetryBus` and every
cell completion emits an ``experiment.cell`` instant event (key, status
``hit``/``run``/``retried``, seconds); a final ``experiment.cache``
event carries the hit/miss statistics.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.experiments.cache import CacheStats, ResultCache
from repro.experiments.cells import (
    Cell,
    CellKey,
    cloud_cell,
    custom_cell,
    eval_cell,
    execute_cell,
    profile_cell,
    single_cell,
)
from repro.telemetry.bus import TelemetryBus
from repro.workloads.mixes import workload_by_name
from repro.workloads.spec2000 import APPS

__all__ = ["CellFailure", "ParallelReport", "plan_cells", "run_cells",
           "merge_into", "default_jobs"]


def default_jobs() -> int:
    """``--jobs 0`` resolution: one worker per available CPU."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class CellFailure:
    """One cell that failed after its retry (or lost a dependency)."""

    key_str: str
    error: str
    attempts: int


@dataclass
class ParallelReport:
    """Outcome of one :func:`run_cells` invocation."""

    results: dict[CellKey, object] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)
    retried: list[str] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    executed: int = 0
    cache_hits: int = 0
    seconds: float = 0.0
    pool_broken: bool = False
    #: fleet-run correlation id (minted per run_cells invocation, or the
    #: coordinator's id when the report came over the wire)
    run_id: str | None = None

    def summary(self) -> str:
        parts = [
            f"{len(self.results)} cells in {self.seconds:.1f}s",
            f"{self.executed} simulated",
            f"{self.cache_hits} cache hits",
        ]
        if self.retried:
            parts.append(f"{len(self.retried)} retried")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        if self.pool_broken:
            parts.append("pool broke (finished serially)")
        return ", ".join(parts)

    def failure_report(self) -> str:
        lines = ["parallel runner failures:"]
        for f in self.failures:
            lines.append(f"  {f.key_str}  ({f.attempts} attempts): {f.error}")
        return "\n".join(lines)


# -- planning --------------------------------------------------------------------


def plan_cells(
    ctx,
    *,
    table2: bool = False,
    figure2: tuple[tuple[int, ...], tuple[str, ...]] | None = None,
    figure3: tuple[str, ...] | None = None,
    figure4: bool = False,
    figure5: bool = False,
    ablations: bool = False,
    arena: tuple[tuple[str, ...], tuple[str, ...] | None] | None = None,
    cloud: tuple[tuple[str, ...], tuple[str, ...] | None] | None = None,
) -> list[Cell]:
    """Enumerate every cell the requested sections will consume.

    Mirrors the figure harnesses exactly (each module exports its own
    ``*_cells`` enumerator); deduplicates across sections the same way
    the context memo would.  ``arena`` is ``(mix_names, policies)`` with
    ``policies=None`` meaning the full registry — matching
    :func:`repro.experiments.arena.run_arena`; ``cloud`` has the same
    shape over cloud mix-set names — matching
    :func:`repro.experiments.cloud.run_cloud_table`.
    """
    from repro.experiments.ablations import ablation_cell_specs
    from repro.experiments.arena import arena_cells
    from repro.experiments.figure2 import figure2_cells
    from repro.experiments.figure3 import figure3_cells
    from repro.experiments.figure4 import figure4_cells
    from repro.experiments.figure5 import figure5_cells

    cells: dict[CellKey, Cell] = {}

    def add(cell: Cell) -> None:
        cells.setdefault(cell.key, cell)

    def add_run(cell: Cell, baseline_codes) -> None:
        """A multi-core cell, its ME profiles and its speedup baselines."""
        add(cell)
        for dep in cell.me_deps:
            add(Cell(key=dep, config=ctx.config))
        for code in baseline_codes:
            add(single_cell(ctx, code, cell.key.seed))

    def add_pairs(pairs) -> None:
        for mix_name, policy in pairs:
            codes = sorted(set(workload_by_name(mix_name).codes))
            for seed in ctx.seeds:
                add_run(eval_cell(ctx, mix_name, policy, seed), codes)

    if table2:
        for app in APPS:
            add(profile_cell(ctx, app.code, ctx.seeds[0]))
    if figure2 is not None:
        core_counts, groups = figure2
        add_pairs(figure2_cells(core_counts=core_counts, groups=groups))
    if figure3 is not None:
        add_pairs(figure3_cells(groups=figure3))
    if figure4:
        add_pairs(figure4_cells())
    if figure5:
        add_pairs(figure5_cells())
    if arena is not None:
        mix_names, policies = arena
        add_pairs(arena_cells(mix_names, policies))
    if cloud is not None:
        from repro.experiments.cloud import cloud_cells
        from repro.workloads.cloud import cloud_mix_by_name

        mix_names, policies = cloud
        for mix_name, policy in cloud_cells(mix_names, policies):
            # the table's batch-speedup column needs the batch baselines
            codes = [a.code for a in cloud_mix_by_name(mix_name).batch_apps()]
            for seed in ctx.seeds:
                add_run(cloud_cell(ctx, mix_name, policy, seed), codes)
    if ablations:
        for spec in ablation_cell_specs(ctx):
            add_run(
                custom_cell(ctx, spec.workload, spec.policy, spec.seed,
                            policy_args=spec.policy_args,
                            config=spec.config, lookahead=spec.lookahead),
                sorted(set(workload_by_name(spec.workload).codes)),
            )
    return sorted(cells.values(), key=lambda c: c.key.key_str())


# -- execution -------------------------------------------------------------------


def _timed_execute(cell: Cell, attempt: int):
    t0 = time.perf_counter()
    payload = execute_cell(cell, attempt)
    return payload, time.perf_counter() - t0


class _Progress:
    """Counts completions and forwards them to the telemetry bus."""

    def __init__(self, bus: TelemetryBus | None, total: int) -> None:
        self.bus = bus
        self.total = total
        self.done = 0

    def emit(self, key: CellKey, status: str, seconds: float) -> None:
        self.done += 1
        if self.bus is not None:
            self.bus.emit(
                "experiment.cell", "instant", cycle=self.done,
                track="experiments", key=key.key_str(), status=status,
                seconds=round(seconds, 4), done=self.done, total=self.total,
            )


def _run_round_serial(cells, progress, failures, retried, results,
                      attempt0: int = 0):
    """Execute cells in-parent, in key order, with one retry each."""
    executed = 0
    for cell in cells:
        try:
            payload, dt = _timed_execute(cell, attempt0)
            status = "retried" if attempt0 > 0 else "run"
        except Exception:
            try:
                payload, dt = _timed_execute(cell, 1)
                status = "retried"
            except Exception as exc:
                failures.append(CellFailure(cell.key.key_str(), repr(exc), 2))
                progress.emit(cell.key, "failed", 0.0)
                continue
        if status == "retried":
            retried.append(cell.key.key_str())
        results[cell.key] = payload
        executed += 1
        progress.emit(cell.key, status, dt)
    return executed


def _run_round_pool(cells, jobs, progress, failures, retried, results):
    """Execute one round on a process pool; returns (executed, broken).

    Worker exceptions are collected and the cell retried once in the
    parent; a broken pool (hard worker crash) aborts the pool and the
    unfinished cells run serially — a clear report, never a hung pool.
    """
    executed = 0
    broken = False
    pending_retry: list[Cell] = []
    unfinished: list[Cell] = list(cells)
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(cells)))
    try:
        futures = {pool.submit(_timed_execute, c, 0): c for c in cells}
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for fut in done:
                cell = futures[fut]
                try:
                    payload, dt = fut.result()
                except BrokenProcessPool:
                    raise
                except Exception:
                    pending_retry.append(cell)
                    continue
                results[cell.key] = payload
                unfinished.remove(cell)
                executed += 1
                progress.emit(cell.key, "run", dt)
        pool.shutdown(wait=True)
    except BrokenProcessPool:
        pool.shutdown(wait=False, cancel_futures=True)
        broken = True
        # Everything not yet merged (including would-be retries) runs
        # serially in the parent; that is their one retry.
        leftovers = [c for c in unfinished if c not in pending_retry]
        executed += _run_round_serial(
            pending_retry + leftovers, progress, failures, retried, results,
            attempt0=1,
        )
        return executed, broken
    except (KeyboardInterrupt, SystemExit):
        # Ctrl-C: release the pool without waiting for in-flight cells
        # (the workers share our process group and die on the same
        # SIGINT) and let the caller flush its partial report — never a
        # hung pool, never a traceback dump from inside the executor.
        pool.shutdown(wait=False, cancel_futures=True)
        raise

    for cell in pending_retry:
        try:
            payload, dt = _timed_execute(cell, 1)
        except Exception as exc:
            failures.append(CellFailure(cell.key.key_str(), repr(exc), 2))
            progress.emit(cell.key, "failed", 0.0)
            continue
        results[cell.key] = payload
        retried.append(cell.key.key_str())
        executed += 1
        progress.emit(cell.key, "retried", dt)
    return executed, broken


def run_cells(
    cells,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    bus: TelemetryBus | None = None,
) -> ParallelReport:
    """Execute every cell, fanning out over ``jobs`` worker processes.

    Deterministic by construction: the returned ``results`` mapping is
    ordered by canonical cell key regardless of completion order, cache
    hits return bit-exact payloads, and ME vectors are resolved from the
    profile round so workers reproduce the serial numbers exactly.
    """
    from repro.telemetry.fleet import ENV_RUN_ID, new_run_id

    t0 = time.perf_counter()
    unique: dict[CellKey, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.key, cell)
    ordered = sorted(unique.values(), key=lambda c: c.key.key_str())

    report = ParallelReport()
    # Correlation id for this sweep: pool children inherit the parent's
    # environment at fork/spawn time, so setting it before any pool is
    # created stamps every exporter artifact (run_metadata "fleet"
    # section) written by any process of this run.  An id inherited from
    # an enclosing fleet context wins — we are then part of *that* run.
    inherited = os.environ.get(ENV_RUN_ID)
    report.run_id = inherited or new_run_id()
    if inherited is None:
        os.environ[ENV_RUN_ID] = report.run_id
    results: dict[CellKey, object] = {}
    progress = _Progress(bus, total=len(ordered))

    rounds = (
        [c for c in ordered if c.key.kind in ("profile", "single")],
        [c for c in ordered if c.key.kind in ("eval", "custom", "cloud")],
    )
    try:
        for round_cells in rounds:
            todo: list[Cell] = []
            for cell in round_cells:
                hit = cache.get(cell.key) if cache is not None else None
                if hit is not None:
                    results[cell.key] = hit
                    report.cache_hits += 1
                    progress.emit(cell.key, "hit", 0.0)
                else:
                    todo.append(cell)

            ready: list[Cell] = []
            for cell in todo:
                resolved = cell.with_resolved_me(results.get)
                if resolved is None:
                    report.failures.append(CellFailure(
                        cell.key.key_str(),
                        "dependency failed: missing ME profile", 0,
                    ))
                    progress.emit(cell.key, "failed", 0.0)
                    continue
                ready.append(resolved)

            before = dict(results)
            if not ready:
                pass
            elif jobs <= 1 or len(ready) == 1:
                report.executed += _run_round_serial(
                    ready, progress, report.failures, report.retried, results
                )
            else:
                executed, broken = _run_round_pool(
                    ready, jobs, progress, report.failures, report.retried,
                    results,
                )
                report.executed += executed
                report.pool_broken = report.pool_broken or broken
            if cache is not None:
                for cell in ready:
                    if cell.key not in before and cell.key in results:
                        cache.put(cell.key, results[cell.key])
    finally:
        if inherited is None:
            os.environ.pop(ENV_RUN_ID, None)

    report.results = dict(
        sorted(results.items(), key=lambda kv: kv[0].key_str())
    )
    report.seconds = time.perf_counter() - t0
    if cache is not None:
        report.cache_stats = cache.stats
    if bus is not None:
        bus.emit("experiment.cache", "instant", cycle=progress.done,
                 track="experiments", **report.cache_stats.as_dict())
    return report


# -- merging ---------------------------------------------------------------------


def merge_into(ctx, report: ParallelReport) -> int:
    """Install cell results into a context's memo by cell key.

    Iterates in canonical key order (already how ``report.results`` is
    ordered), so merge order is a function of the cell set, never of
    completion timing.  A result planned under other budgets or another
    configuration lands under a key the context never builds, so it can
    never be served.  Returns the number of entries installed.
    """
    for key, payload in report.results.items():
        ctx.memo.setdefault(key, payload)
    return len(report.results)
