"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the paper's workflow:

* ``profile``   — single-core ME profiling of one or all applications
                  (Table 2 analogue);
* ``run``       — one multiprogrammed workload under one policy;
* ``figure``    — regenerate a paper figure (2, 3, 4 or 5);
* ``table2``    — regenerate Table 2;
* ``arena``     — rank every registered policy on speedup, fairness and
                  hardware cost over a mix set (docs/POLICIES.md);
* ``cloud``     — tail-latency / SLO table for the open-loop cloud
                  workload family (docs/WORKLOADS.md);
* ``workloads`` — list the Table 3 mixes and the cloud mixes;
* ``policies``  — list the registered scheduling policies.

Distributed sweeps (docs/DISTRIBUTED.md):

* ``serve``     — start the sweep coordinator (leases, retries, store);
* ``worker``    — attach a worker process to a coordinator;
* ``submit``    — run a figure/table sweep on a coordinator and render
                  it exactly as the serial command would (byte-identical).

Fleet observability (docs/OBSERVABILITY.md): ``serve``/``worker`` accept
``--telemetry``/``--trace-out`` to record fleet metrics and wall-clock
traces, ``submit --watch`` renders a live progress dashboard, ``obs
merge-trace`` stitches per-process traces into one Perfetto timeline,
and ``run``/``profile`` accept ``--profile`` to cProfile the engine.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.config import SystemConfig
from repro.core.registry import available_policies, policy_class
from repro.experiments import (
    ExperimentContext,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table2,
)
from repro.experiments.cells import eval_cell, execute_cell
from repro.experiments.figure2 import format_figure2
from repro.experiments.figure3 import format_figure3
from repro.experiments.figure4 import format_figure4
from repro.experiments.figure5 import format_figure5
from repro.experiments.table2 import format_table2
from repro.metrics.speedup import smt_speedup, unfairness
from repro.workloads.mixes import WORKLOAD_MIXES, workload_by_name
from repro.workloads.spec2000 import APPS, app_by_name

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def _output_path(text: str) -> str:
    """A file the verb writes after simulating: its directory must exist
    now, not only when the results are in."""
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory: {parent}")
    return text


def _policy_error(policy: str, workload: str) -> str | None:
    """Why ``policy`` cannot schedule ``workload``, or None if it can."""
    try:
        policy_class(policy)
    except ValueError as exc:
        return str(exc)
    mix = workload_by_name(workload)
    cores = [str(c) for c in range(mix.num_cores)]
    key = policy.upper()
    if key.startswith("FIX-") and sorted(key[len("FIX-"):]) != cores:
        return (f"policy {policy}: {mix.name} has {mix.num_cores} cores, "
                f"so a FIX order must permute {''.join(cores)}")
    return None


def _add_common(p: argparse.ArgumentParser, *, sweep: bool) -> None:
    """``--budget``, plus ``--seed`` (profile, run) or ``--seeds`` (the
    sweep verbs, which average over them)."""
    p.add_argument("--budget", type=_positive_int, default=30_000,
                   help="instructions measured per core")
    if sweep:
        p.add_argument("--seeds", type=int, nargs="+", default=[1],
                       metavar="N", help="seeds to average over")
    else:
        p.add_argument("--seed", type=int, default=1,
                       help="RNG seed for the run")


def _add_panels(p: argparse.ArgumentParser) -> None:
    """``--cores`` and ``--groups``: the Figure 2 panels (figure, submit)."""
    p.add_argument("--cores", type=int, nargs="+", default=[4],
                   choices=(2, 4, 8))
    p.add_argument("--groups", nargs="+", default=["MEM"],
                   choices=("MEM", "MIX"))


def _add_field(p: argparse.ArgumentParser, *, policies: bool = True) -> None:
    """``--mixes`` (arena, cloud, submit) and ``--policies`` (arena,
    cloud)."""
    p.add_argument("--mixes", nargs="+", default=["smoke"],
                   help="mix-set names (smoke, 2core, 4core, 8core, full) "
                        "and/or explicit mix names: Table 3 mixes for "
                        "arena, cloud mixes for cloud (default: smoke)")
    if policies:
        p.add_argument("--policies", nargs="+", default=None,
                       metavar="NAME",
                       help="restrict the field (default: every registered "
                            "policy plus FIX-DESC)")


def _add_parallel(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("parallel execution (docs/PERFORMANCE.md)")
    g.add_argument("--jobs", type=_non_negative_int, default=1, metavar="N",
                   help="shard simulation cells over N worker processes "
                        "(0 = one per CPU); output stays bit-identical")
    g.add_argument("--resume", action="store_true",
                   help="read/write the on-disk result cache")
    g.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache directory for --resume "
                        "(default: .repro-cache)")


def _engine_profiler(args: argparse.Namespace):
    """``--profile [BASE]`` -> an EngineProfiler, or a no-op context."""
    import contextlib

    if getattr(args, "profile", None) is None:
        return contextlib.nullcontext(None)
    from repro.telemetry import EngineProfiler

    return EngineProfiler(args.profile)


def _report_profile(prof) -> None:
    if prof is None:
        return
    print()
    print(prof.format_top(), end="")
    print(f"profile: {prof.pstats_path} (pstats), "
          f"{prof.folded_path} (collapsed stacks)")


def _cmd_profile(args: argparse.Namespace) -> int:
    ctx = ExperimentContext(seeds=(args.seed,), profile_budget=args.budget)
    apps = [app_by_name(args.app)] if args.app else list(APPS)
    with _engine_profiler(args) as eng:
        print(f"{'app':<9} {'class':<5} {'IPC':>6} {'BW GB/s':>8} {'ME':>10}")
        for app in apps:
            p = ctx.profile(app, args.seed)
            print(
                f"{p.app:<9} {app.klass:<5} {p.ipc:>6.2f} {p.bw_gbps:>8.3f} "
                f"{p.me:>10.3f}"
            )
    _report_profile(eng)
    return 0


def _make_telemetry(args: argparse.Namespace):
    """Build a Telemetry hub from CLI flags, or None when not requested."""
    spans = bool(args.spans or args.spans_out)
    wants = (
        args.telemetry
        or args.trace_out
        or args.telemetry_out
        or args.telemetry_csv
        or spans
    )
    if not wants:
        return None
    from repro.telemetry import Telemetry

    # The Chrome trace is far richer with the discrete event streams;
    # JSONL/CSV only need the sampled series.
    return Telemetry(
        sample_every=args.sample_every,
        capture_decisions=bool(args.trace_out),
        capture_commands=bool(args.trace_out and args.trace_commands),
        capture_spans=spans,
        span_sample=args.span_sample,
    )


def _export_telemetry(tm, args: argparse.Namespace) -> None:
    from repro.telemetry import (
        attribute,
        format_attribution,
        render_summary,
        write_chrome_trace,
        write_csv,
        write_jsonl,
        write_spans_jsonl,
    )

    print()
    print(render_summary(tm))
    if tm.spans is not None:
        print()
        if tm.spans.completed:
            print(format_attribution(attribute(tm, kind="read")))
        else:
            print("no request spans traced (run too short for the "
                  f"1-in-{tm.spans.sample_every} sample; try --span-sample 1)")
    if args.trace_out:
        n = write_chrome_trace(tm, args.trace_out)
        print(f"chrome trace: {args.trace_out} ({n} events; open in Perfetto)")
    if args.telemetry_out:
        n = write_jsonl(tm, args.telemetry_out)
        print(f"telemetry JSONL: {args.telemetry_out} ({n} lines)")
    if args.telemetry_csv:
        n = write_csv(tm, args.telemetry_csv)
        print(f"telemetry CSV: {args.telemetry_csv} ({n} rows)")
    if args.spans_out:
        n = write_spans_jsonl(tm, args.spans_out)
        print(f"span JSONL: {args.spans_out} ({n} lines)")


def _cmd_run(args: argparse.Namespace) -> int:
    mix = workload_by_name(args.workload)
    ctx = ExperimentContext(inst_budget=args.budget, seeds=(args.seed,),
                            profile_budget=max(args.budget // 2, 5000))
    # ME profiles run here, and only for a policy that reads them; the
    # --profile window below covers the evaluation run alone.
    cell = ctx.resolve(eval_cell(ctx, mix.name, args.policy, args.seed))
    single = ctx.single_ipcs(mix, args.seed)
    tm = _make_telemetry(args)
    with _engine_profiler(args) as eng:
        result = execute_cell(cell, telemetry=tm)
    print(f"workload {mix.name} under {result.policy_name}")
    for c, s in zip(result.per_core, single):
        print(
            f"  core{c.core_id} {c.app:<9} IPC={c.ipc:.3f} "
            f"(solo {s:.3f})  lat={c.avg_read_latency:6.0f}  "
            f"BW={c.bw_gbps:5.2f} GB/s"
        )
    print(f"SMT speedup = {smt_speedup(result.ipcs(), single):.3f}")
    print(f"unfairness  = {unfairness(result.ipcs(), single):.3f}")
    print(f"row-hit rate = {result.row_hit_rate:.1%}")
    if tm is not None:
        _export_telemetry(tm, args)
    _report_profile(eng)
    return 0


def _make_ctx(args: argparse.Namespace) -> ExperimentContext:
    ctx = ExperimentContext(
        inst_budget=args.budget,
        seeds=tuple(args.seeds),
        profile_budget=max(args.budget // 2, 5_000),
        config=SystemConfig(),
    )
    if getattr(args, "resume", False):
        from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache

        ctx.cache = ResultCache(root=args.cache_dir or DEFAULT_CACHE_DIR,
                                mode="rw")
    return ctx


# -- sweep sections: what each asks of plan_cells, and how it prints ---------


def _field(args: argparse.Namespace):
    """``(mixes, policies)`` of an arena or cloud section."""
    policies = (tuple(p.upper() for p in args.policies)
                if args.policies else None)
    return tuple(args.mixes), policies


def _render_arena(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from repro.experiments.arena import (
        format_arena,
        format_arena_per_mix,
        run_arena,
        run_arena_per_mix,
    )

    mixes, policies = _field(args)
    if args.per_mix:
        return format_arena_per_mix(
            run_arena_per_mix(ctx, mixes=mixes, policies=policies))
    return format_arena(run_arena(ctx, mixes=mixes, policies=policies), mixes)


def _render_cloud(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from repro.experiments.cloud import format_cloud, run_cloud_table

    mixes, policies = _field(args)
    return format_cloud(run_cloud_table(ctx, mixes=mixes, policies=policies))


#: section -> (its ``plan_cells`` keywords for ``args``, its printout).
#: ``figure``, ``table2``, ``arena``, ``cloud`` and ``submit`` all read
#: this table; they differ only in the executor that fills the memo.
SECTIONS = {
    "table2": (lambda a: {"table2": True},
               lambda ctx, a: format_table2(run_table2(ctx))),
    "figure2": (lambda a: {"figure2": (tuple(a.cores), tuple(a.groups))},
                lambda ctx, a: format_figure2(run_figure2(
                    ctx, core_counts=tuple(a.cores),
                    groups=tuple(a.groups)))),
    "figure3": (lambda a: {"figure3": tuple(a.groups)},
                lambda ctx, a: format_figure3(
                    run_figure3(ctx, groups=tuple(a.groups)))),
    "figure4": (lambda a: {"figure4": True},
                lambda ctx, a: format_figure4(run_figure4(ctx))),
    "figure5": (lambda a: {"figure5": True},
                lambda ctx, a: format_figure5(run_figure5(ctx))),
    "arena": (lambda a: {"arena": _field(a)}, _render_arena),
    "cloud": (lambda a: {"cloud": _field(a)}, _render_cloud),
}


def _sweep(args: argparse.Namespace, execute) -> ExperimentContext:
    """Plan ``args.section``, let ``execute(ctx, args, plan)`` fill the
    context's memo, then print the section from the memo.

    The printout is bit-identical whichever executor ran the cells: the
    merge is ordered by cell key, never by completion order."""
    plan, render = SECTIONS[args.section]
    ctx = _make_ctx(args)
    execute(ctx, args, plan(args))
    print(render(ctx, args))
    return ctx


def _run_local(ctx: ExperimentContext, args: argparse.Namespace,
               plan: dict) -> None:
    """Shard the section's cells over ``--jobs`` workers, merge back.

    Serially and without a result cache there is nothing to shard: the
    section then computes its cells as it prints."""
    from repro.experiments.parallel import (
        default_jobs,
        merge_into,
        plan_cells,
        run_cells,
    )

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    if jobs <= 1 and ctx.cache is None:
        return
    report = run_cells(plan_cells(ctx, **plan), jobs=jobs, cache=ctx.cache)
    if report.failures:
        print(report.failure_report(), file=sys.stderr)
    merge_into(ctx, report)
    print(report.summary(), file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _sweep(args, _run_local)
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    ctx = _sweep(args, _run_local)
    if args.anatomy:
        from repro.experiments.arena import arena_anatomy

        mixes, policies = _field(args)
        print()
        print(arena_anatomy(ctx, mixes=mixes, policies=policies,
                            span_sample=args.span_sample))
    return 0


# -- distributed sweep verbs (docs/DISTRIBUTED.md) ---------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.service.coordinator import Coordinator
    from repro.telemetry.bus import TelemetryBus
    from repro.telemetry.export import JsonlRecorder
    from repro.telemetry.fleet import write_snapshots

    store = (None if args.no_store
             else ResultCache(root=args.store or DEFAULT_CACHE_DIR, mode="rw"))
    bus = TelemetryBus(retain=False)

    def narrate(ev):
        if ev.name not in ("service.worker", "service.job") and not (
                args.verbose and ev.name.startswith("lease ")):
            return
        detail = " ".join(f"{k}={v}" for k, v in sorted(ev.args.items()))
        print(f"  [{ev.name}] {detail}", file=sys.stderr)

    bus.subscribe(narrate)

    outputs = args.trace_out or args.metrics_out or args.prometheus_out

    async def serve() -> Coordinator:
        coord = Coordinator(
            host=args.host, port=args.port, store=store,
            lease_seconds=args.lease, max_attempts=args.max_attempts,
            bus=bus, telemetry=bool(args.telemetry or outputs),
        )
        trace = snapshots = None
        if args.trace_out:
            trace = JsonlRecorder(args.trace_out, role="coordinator",
                                  run_id=coord.run_id)
            bus.subscribe(trace)
        await coord.start()
        if args.metrics_out or args.prometheus_out:
            snapshots = asyncio.create_task(write_snapshots(
                coord.fleet_snapshot, args.sample_every, args.metrics_out,
                args.prometheus_out))
        print(f"serving on {coord.host}:{coord.port} "
              f"(fingerprint {coord.fingerprint}, "
              f"store {'off' if store is None else store.root}, "
              f"lease {args.lease:g}s, "
              f"max attempts {args.max_attempts}, "
              f"run {coord.run_id})", flush=True)
        try:
            await coord.wait_stopped()
        finally:
            await coord.stop()
            if snapshots is not None:
                snapshots.cancel()  # writes the final snapshot
                await asyncio.gather(snapshots, return_exceptions=True)
            if trace is not None:
                trace.close(coord.metrics.registry)
            print(f"coordinator stopped: {coord.summary()}", file=sys.stderr)
        return coord

    asyncio.run(serve())
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.cache import ResultCache
    from repro.service.protocol import parse_addr
    from repro.service.worker import run_worker

    host, port = parse_addr(args.coordinator)
    store = (ResultCache(root=args.store, mode="rw")
             if args.store else None)
    trace_out = args.trace_out
    if trace_out is None and args.telemetry:
        trace_out = f"fleet-worker-{args.id or os.getpid()}.jsonl"
    stats = asyncio.run(run_worker(
        host, port, worker_id=args.id, store=store,
        connect_retries=args.connect_retries,
        trace_out=trace_out,
        snapshot_seconds=args.sample_every if trace_out else None,
    ))
    print(f"worker done: {stats['executed']} executed, "
          f"{stats['hits']} store hits, {stats['failed']} failed")
    if trace_out:
        print(f"fleet trace: {trace_out}", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import coordinator_status, request_shutdown

    if args.stop:
        request_shutdown(args.coordinator)
        print("coordinator stopped", file=sys.stderr)
        return 0
    if args.status:
        doc = coordinator_status(args.coordinator)
        print(f"workers: {', '.join(doc['workers']) or '(none)'}")
        print(f"tasks:   {doc['tasks']}")
        print(f"stats:   {doc['stats']}")
        if doc.get("run_id"):
            print(f"run:     {doc['run_id']}")
        if doc.get("fleet"):
            from repro.telemetry.fleet import render_dashboard

            done = doc["tasks"].get("done", 0)
            total = sum(doc["tasks"].values())
            print(render_dashboard(doc, done, total))
        return 0
    _sweep(args, _run_remote)
    return 0


def _run_remote(ctx: ExperimentContext, args: argparse.Namespace,
                plan: dict) -> None:
    """Run the section's cells on the coordinator, merge back."""
    from repro.experiments.parallel import merge_into, plan_cells
    from repro.service.client import coordinator_status, submit_cells
    from repro.telemetry.bus import TelemetryBus

    cells = plan_cells(ctx, **plan)
    # retained events become the client lane of the fleet trace
    bus = TelemetryBus(retain=bool(args.trace_out))

    def narrate(ev):
        if ev.name != "experiment.cell":
            return
        a = ev.args
        print(f"  [{a['done']}/{a['total']}] {a['status']:<7} {a['key']}",
              file=sys.stderr)

    bus.subscribe(narrate)
    watch_seconds = args.sample_every if args.watch else None
    report = submit_cells(args.coordinator, cells, bus=bus,
                          watch_seconds=watch_seconds)
    if report.failures:
        print(report.failure_report(), file=sys.stderr)
    merge_into(ctx, report)
    print(report.summary(), file=sys.stderr)
    if report.run_id:
        print(f"run: {report.run_id}", file=sys.stderr)
    if args.trace_out and report.run_id:
        # the merged timeline shows when results landed back here
        from repro.telemetry.export import JsonlRecorder

        trace = JsonlRecorder(args.trace_out, role="client",
                              run_id=report.run_id)
        for ev in bus.events:
            trace(ev)
        trace.close()
        print(f"fleet trace: {args.trace_out}", file=sys.stderr)
    if args.telemetry:
        doc = coordinator_status(args.coordinator)
        if doc.get("fleet"):
            from repro.telemetry.fleet import render_dashboard

            print(render_dashboard(doc, len(report.results), len(cells)),
                  file=sys.stderr)


def _cmd_obs_merge(args: argparse.Namespace) -> int:
    from repro.telemetry.export import write_merged_trace

    doc = write_merged_trace(args.traces, args.out)
    other = doc["otherData"]
    n_events = sum(1 for e in doc["traceEvents"]
                   if e.get("ph") in ("B", "E", "i", "C"))
    print(f"run {other['run_id']}: merged {len(other['sources'])} traces, "
          f"{n_events} events -> {args.out}")
    for s in other["sources"]:
        label = s["role"] + (f" {s['worker_id']}" if s.get("worker_id")
                             else "")
        print(f"  pid {s['pid']}  {label:<24} {s['events']:>6} events  "
              f"{s['path']}")
    print("open in https://ui.perfetto.dev (lanes = processes, "
          "slices = leases/cells, gaps = idle)")
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads.cloud import CLOUD_MIXES, service_by_code

    for m in WORKLOAD_MIXES:
        apps = ", ".join(a.name for a in m.apps())
        print(f"{m.name:<8} [{m.codes}] {apps}")
    for cm in CLOUD_MIXES:
        parts = ", ".join(
            service_by_code(c).name if c.isupper() else
            next(a.name for a in cm.batch_apps() if a.code == c)
            for c in cm.codes
        )
        print(f"{cm.name:<8} [{cm.codes}] {parts}")
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    for name in available_policies():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="ICPP'08 memory-access-scheduling reproduction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_engine_profile(p):
        p.add_argument("--profile", nargs="?", const="profile",
                       type=_output_path, metavar="BASE",
                       help="cProfile the engine: write BASE.pstats and "
                            "BASE.folded (collapsed stacks) and print the "
                            "top functions by cumulative time "
                            "(default BASE: 'profile')")

    p = sub.add_parser("profile", help="single-core ME profiling")
    _add_common(p, sweep=False)
    p.add_argument("--app", choices=[a.name for a in APPS], metavar="NAME",
                   help="benchmark name (default: all 26)")
    add_engine_profile(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("run", help="run one workload under one policy")
    _add_common(p, sweep=False)
    p.add_argument("workload", type=str.upper, metavar="workload",
                   choices=[m.name for m in WORKLOAD_MIXES],
                   help="Table 3 mix name, e.g. 4MEM-1")
    p.add_argument("policy", help="policy name, e.g. ME-LREQ")
    g = p.add_argument_group("telemetry (docs/OBSERVABILITY.md)")
    g.add_argument("--telemetry", action="store_true",
                   help="capture the sampled time series and print a summary")
    g.add_argument("--sample-every", type=_positive_int, default=2000,
                   metavar="CYCLES",
                   help="sampler epoch length in cycles (default 2000)")
    g.add_argument("--trace-out", type=_output_path, metavar="PATH",
                   help="write a Chrome trace-event file (Perfetto-loadable); "
                        "implies --telemetry and decision capture")
    g.add_argument("--trace-commands", action="store_true",
                   help="with --trace-out, also capture per-DRAM-command events")
    g.add_argument("--telemetry-out", type=_output_path, metavar="PATH",
                   help="write the telemetry stream as JSONL; implies --telemetry")
    g.add_argument("--telemetry-csv", type=_output_path, metavar="PATH",
                   help="write the sampled series as CSV; implies --telemetry")
    g.add_argument("--spans", action="store_true",
                   help="trace sampled request lifecycles and print the "
                        "per-core latency-attribution table")
    g.add_argument("--span-sample", type=_positive_int, default=64, metavar="N",
                   help="trace every Nth request (default 64; 1 = all)")
    g.add_argument("--spans-out", type=_output_path, metavar="PATH",
                   help="write traced spans + attribution as JSONL; "
                        "implies --spans")
    add_engine_profile(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("section", metavar="number", type=lambda n: f"figure{n}",
                   choices=("figure2", "figure3", "figure4", "figure5"),
                   help="2, 3, 4 or 5")
    _add_common(p, sweep=True)
    _add_panels(p)
    _add_parallel(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("table2", help="regenerate Table 2")
    _add_common(p, sweep=True)
    _add_parallel(p)
    p.set_defaults(fn=_cmd_sweep, section="table2")

    p = sub.add_parser(
        "arena",
        help="rank every registered policy on speedup, fairness and "
             "hardware cost (docs/POLICIES.md)")
    _add_common(p, sweep=True)
    _add_field(p)
    p.add_argument("--per-mix", action="store_true", dest="per_mix",
                   help="per-mix drill-down table (no averaging over "
                        "mixes) instead of the aggregate ranking")
    p.add_argument("--anatomy", action="store_true",
                   help="append the per-policy stall-attribution breakdown "
                        "on the first mix (rerun with span tracing)")
    p.add_argument("--span-sample", type=_positive_int, default=16,
                   metavar="N",
                   help="with --anatomy, trace every Nth request "
                        "(default 16)")
    _add_parallel(p)
    p.set_defaults(fn=_cmd_arena, section="arena")

    p = sub.add_parser(
        "cloud",
        help="tail-latency / SLO table for the open-loop cloud workload "
             "family (docs/WORKLOADS.md)")
    _add_common(p, sweep=True)
    _add_field(p)
    _add_parallel(p)
    p.set_defaults(fn=_cmd_sweep, section="cloud")

    p = sub.add_parser("workloads",
                       help="list Table 3 mixes and cloud mixes")
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser("policies", help="list scheduling policies")
    p.set_defaults(fn=_cmd_policies)

    p = sub.add_parser(
        "serve", help="start the distributed sweep coordinator")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1; see the security "
                        "note in docs/DISTRIBUTED.md before widening)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = pick a free one)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="content-addressed result store "
                        "(default: .repro-cache)")
    p.add_argument("--no-store", action="store_true",
                   help="run without a persistent result store")
    p.add_argument("--lease", type=_positive_float, default=60.0,
                   metavar="SECONDS",
                   help="cell lease duration before a silent worker is "
                        "presumed dead (default 60)")
    p.add_argument("--max-attempts", type=_positive_int, default=3,
                   metavar="N",
                   help="attempts per cell before it is reported failed")
    p.add_argument("--verbose", action="store_true",
                   help="also narrate per-cell service events")
    g = p.add_argument_group("fleet observability (docs/OBSERVABILITY.md)")
    g.add_argument("--telemetry", action="store_true",
                   help="collect fleet metrics (lease/queue/worker "
                        "counters) and serve them via status requests")
    g.add_argument("--trace-out", type=_output_path, metavar="PATH",
                   help="record coordinator lease slices as a fleet trace "
                        "(JSONL; merge with 'repro obs merge-trace'); "
                        "implies --telemetry")
    g.add_argument("--metrics-out", type=_output_path, metavar="PATH",
                   help="append periodic metrics snapshots as JSONL; "
                        "implies --telemetry")
    g.add_argument("--prometheus-out", type=_output_path, metavar="PATH",
                   help="write the latest snapshot in Prometheus text "
                        "format (textfile-collector ready); implies "
                        "--telemetry")
    g.add_argument("--sample-every", type=_positive_float, default=5.0,
                   metavar="SECONDS",
                   help="metrics snapshot period in seconds (default 5)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("worker", help="attach a sweep worker")
    p.add_argument("coordinator", metavar="HOST:PORT")
    p.add_argument("--id", default=None, help="worker name (default: auto)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="local read-through result store (optional)")
    p.add_argument("--connect-retries", type=_non_negative_int, default=10,
                   metavar="N",
                   help="retry the initial connection N times, 0.5s apart "
                        "(default 10 — lets the worker start first)")
    g = p.add_argument_group("fleet observability (docs/OBSERVABILITY.md)")
    g.add_argument("--telemetry", action="store_true",
                   help="record a fleet trace of executed cells "
                        "(default file: fleet-worker-<id>.jsonl)")
    g.add_argument("--trace-out", type=_output_path, metavar="PATH",
                   help="fleet trace file (JSONL; merge with "
                        "'repro obs merge-trace'); implies --telemetry")
    g.add_argument("--sample-every", type=_positive_float, default=30.0,
                   metavar="SECONDS",
                   help="progress-snapshot period in the trace, in "
                        "seconds (default 30)")
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "submit",
        help="run a figure/table sweep on a coordinator, byte-identical "
             "to the serial command")
    p.add_argument("coordinator", metavar="HOST:PORT")
    p.add_argument("section", nargs="?", default="figure2",
                   choices=tuple(SECTIONS))
    _add_common(p, sweep=True)
    _add_panels(p)
    _add_field(p, policies=False)
    p.add_argument("--status", action="store_true",
                   help="print the coordinator's status and exit")
    p.add_argument("--stop", action="store_true",
                   help="shut the coordinator down and exit")
    g = p.add_argument_group("fleet observability (docs/OBSERVABILITY.md)")
    g.add_argument("--watch", action="store_true",
                   help="live dashboard on stderr while the job runs "
                        "(progress bar + worker table; needs a coordinator "
                        "started with --telemetry for the worker table)")
    g.add_argument("--telemetry", action="store_true",
                   help="print the coordinator's fleet snapshot after the "
                        "job completes")
    g.add_argument("--trace-out", type=_output_path, metavar="PATH",
                   help="record result arrivals as a client-lane fleet "
                        "trace (JSONL; merge with 'repro obs merge-trace')")
    g.add_argument("--sample-every", type=_positive_float, default=1.0,
                   metavar="SECONDS",
                   help="--watch refresh period in seconds (default 1)")
    # arena and cloud race every registered policy; arena prints the
    # aggregate ranking
    p.set_defaults(fn=_cmd_submit, policies=None, per_mix=False)

    p = sub.add_parser(
        "obs", help="fleet observability utilities (docs/OBSERVABILITY.md)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    m = obs_sub.add_parser(
        "merge-trace",
        help="stitch per-process fleet traces (coordinator + workers + "
             "client) into one Chrome/Perfetto timeline")
    m.add_argument("traces", nargs="+", metavar="TRACE",
                   help="fleet trace JSONL files from one run "
                        "(same run_id)")
    m.add_argument("--out", default="fleet.trace.json", metavar="PATH",
                   help="merged Chrome trace (default: %(default)s)")
    m.set_defaults(fn=_cmd_obs_merge)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache_dir", None) and not args.resume:
        parser.error("--cache-dir needs --resume (without it no result "
                     "cache is attached)")
    if args.command == "run":
        problem = _policy_error(args.policy, args.workload)
        if problem:
            parser.error(problem)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Clean interactive interrupt: pools/connections wound down by the
        # handlers above; completed cells persist in the store, so a re-run
        # with --resume (or against the same coordinator) picks up there.
        print("\ninterrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
