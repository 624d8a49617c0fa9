"""Parallel sharded experiment runner with a bit-identical merge.

A full regeneration of the paper's figures is embarrassingly parallel:
every simulation cell is a pure function of ``(config, workload, policy,
seed)``.  This module

1. **plans** the exact cell set behind the figure/table harnesses
   (:func:`plan_cells` — eval cells plus the profile / single-core cells
   their outcomes need),
2. **runs** the cells on ``jobs`` worker processes (:func:`run_cells` —
   with an on-disk :class:`ResultCache` read-through, one retry per
   failed cell, and a broken-pool fallback that finishes the sweep in
   the parent instead of hanging), and
3. **merges** the results into an :class:`ExperimentContext`
   (:func:`merge_into` — insertion in canonical cell-key order, never
   completion order).

After the merge, the serial harness code (``run_figure2`` …) runs
unchanged and finds every simulation memoised, so the emitted tables are
*bit-identical* to a serial run by construction: the same code computes
every derived number from the same per-cell results.

Scheduling is the coordinator's
:class:`~repro.experiments.board.TaskBoard`: policies that read ME
consume the profiled ME vector, so the board holds each such cell back
until its own profile cells land, then resolves the vector and ships it
with the cell (workers never re-profile).  A cell whose profile failed
for good profiles in-process instead — deterministic, hence still
bit-identical.

Progress: pass a :class:`~repro.telemetry.bus.TelemetryBus` and every
cell completion emits an ``experiment.cell`` instant event (key, status
``hit``/``run``/``retried``/``failed``, seconds); a final
``experiment.cache`` event carries the hit/miss statistics.
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
    """One cell that failed after its retry."""

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
    #: the coordinator's fleet-run id, when the report came over the wire
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
    from repro.experiments.ablations import ablation_cells
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
        for cell in ablation_cells(ctx):
            add_run(cell,
                    sorted(set(workload_by_name(cell.key.workload).codes)))
    return sorted(cells.values(), key=lambda c: c.key.key_str())


# -- execution -------------------------------------------------------------------


def _timed_execute(cell: Cell, attempt: int):
    t0 = time.perf_counter()
    payload = execute_cell(cell, attempt)
    return payload, time.perf_counter() - t0


def _release(board, state, error: str, settle) -> None:
    """One attempt failed: requeue the cell, or settle it as failed."""
    if board.release(state, error) == "failed":
        settle(state, "failed")


def _run_round_serial(board, settle, *, after_crash: bool = False) -> None:
    """Run the board's ready cells in the parent until it is settled.

    ``after_crash``: the parent is finishing a broken pool, so it never
    runs a cell's first attempt — the test-only exit fault of
    :func:`~repro.experiments.cells.execute_cell` would kill the parent.
    """
    while ready := board.ready():
        for state in ready:
            attempt = max(state.attempts, 1) if after_crash else state.attempts
            board.lease(state, "local", 0.0, 0.0, 0)  # never expires
            try:
                payload, dt = _timed_execute(board.resolve(state), attempt)
            except Exception as exc:
                _release(board, state, repr(exc), settle)
            else:
                settle(state, "run", payload, dt)


def _run_round_pool(board, workers: int, settle) -> bool:
    """Keep ``workers`` processes busy with the board's ready cells.

    A cell starts as soon as its own ME profiles land, and a failed
    attempt goes back on the board for its retry.  Returns False when a
    hard worker crash broke the pool: the cells in flight are released
    (their attempts count) and the caller finishes the sweep in-parent —
    a clear report, never a hung pool.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    in_flight = {}
    broken = False
    try:
        while not broken:
            for state in board.ready()[: workers - len(in_flight)]:
                fut = pool.submit(_timed_execute, board.resolve(state),
                                  state.attempts)
                board.lease(state, "local", 0.0, 0.0, 0)
                in_flight[fut] = state
            if not in_flight:
                break
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for fut in done:
                state = in_flight.pop(fut)
                try:
                    payload, dt = fut.result()
                except Exception as exc:
                    broken = broken or isinstance(exc, BrokenProcessPool)
                    _release(board, state, repr(exc), settle)
                else:
                    settle(state, "run", payload, dt)
    except BrokenProcessPool:  # submit() found the pool already broken
        broken = True
    except BaseException:
        # Ctrl-C (or a failed cache write): release the pool without
        # waiting for in-flight cells (on Ctrl-C the workers share our
        # process group and die on the same SIGINT) and let the caller
        # flush its partial report — never a hung pool, never a
        # traceback dump from inside the executor.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    if not broken:
        pool.shutdown(wait=True)
        return True
    pool.shutdown(wait=False, cancel_futures=True)
    for state in in_flight.values():
        _release(board, state, "process pool broke", settle)
    return False


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
    profile cells so workers reproduce the serial numbers exactly.
    """
    from repro.experiments.board import TaskBoard

    t0 = time.perf_counter()
    board = TaskBoard(max_attempts=2)  # one retry per cell
    for cell in sorted(cells, key=lambda c: c.key.key_str()):
        board.add(cell)

    report = ParallelReport()

    def settle(state, status, payload=None, seconds=0.0):
        """Record one finished cell, store it, and announce it."""
        key = state.cell.key
        if status == "failed":
            report.failures.append(CellFailure(key.key_str(), state.error,
                                               state.attempts))
        else:
            board.mark_done(state.digest, payload)
            if status == "hit":
                report.cache_hits += 1
            else:
                report.executed += 1
                if state.attempts > 1:
                    status = "retried"
                    report.retried.append(key.key_str())
                if cache is not None:
                    cache.put(key, payload)
        if bus is not None:
            done = len(board.done) + len(report.failures)
            bus.emit(
                "experiment.cell", "instant", cycle=done,
                track="experiments", key=key.key_str(), status=status,
                seconds=round(seconds, 4), done=done, total=len(board.tasks),
            )

    if cache is not None:
        for state in board.tasks.values():
            hit = cache.get(state.cell.key)
            if hit is not None:
                settle(state, "hit", hit)
    pending = board.counts()["pending"]
    if jobs <= 1 or pending <= 1:
        _run_round_serial(board, settle)
    elif not _run_round_pool(board, min(jobs, pending), settle):
        report.pool_broken = True
        _run_round_serial(board, settle, after_crash=True)

    # the board holds its cells in canonical key order
    report.results = {s.cell.key: board.done[s.digest]
                      for s in board.tasks.values() if s.status == "done"}
    report.seconds = time.perf_counter() - t0
    if cache is not None:
        report.cache_stats = cache.stats
    if bus is not None:
        bus.emit("experiment.cache", "instant",
                 cycle=len(board.done) + len(report.failures),
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
