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
from repro.core.registry import available_policies
from repro.experiments import (
    ExperimentContext,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table2,
)
from repro.experiments.figure2 import format_figure2
from repro.experiments.figure3 import format_figure3
from repro.experiments.figure4 import format_figure4
from repro.experiments.figure5 import format_figure5
from repro.experiments.table2 import format_table2
from repro.metrics.memory_efficiency import MeProfiler
from repro.metrics.speedup import smt_speedup, unfairness
from repro.sim.runner import run_multicore
from repro.workloads.mixes import WORKLOAD_MIXES, workload_by_name
from repro.workloads.spec2000 import APPS, app_by_name

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=30_000,
                   help="instructions measured per core")
    p.add_argument("--seed", type=int, default=1)


def _add_parallel(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("parallel execution (docs/PERFORMANCE.md)")
    g.add_argument("--jobs", type=int, default=1, metavar="N",
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
    prof = MeProfiler(inst_budget=args.budget, seed=args.seed)
    apps = [app_by_name(args.app)] if args.app else list(APPS)
    with _engine_profiler(args) as eng:
        print(f"{'app':<9} {'class':<5} {'IPC':>6} {'BW GB/s':>8} {'ME':>10}")
        for app in apps:
            p = prof.profile(app)
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
    prof = MeProfiler(inst_budget=max(args.budget // 2, 5000), seed=args.seed)
    me = prof.me_values(mix)
    single = prof.single_ipcs(mix)
    tm = _make_telemetry(args)
    with _engine_profiler(args) as eng:
        result = run_multicore(
            mix, args.policy, inst_budget=args.budget, seed=args.seed,
            me_values=me, telemetry=tm,
        )
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


def _prewarm(ctx: ExperimentContext, args: argparse.Namespace,
             **plan_kwargs) -> None:
    """Shard the section's cells over ``--jobs`` workers, merge back.

    The figure code below then runs entirely from the memo, emitting
    bit-identical output (the merge is ordered by cell key, never by
    completion order)."""
    from repro.experiments.parallel import (
        default_jobs,
        merge_into,
        plan_cells,
        run_cells,
    )

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    if jobs <= 1 and ctx.cache is None:
        return
    report = run_cells(plan_cells(ctx, **plan_kwargs), jobs=jobs,
                       cache=ctx.cache)
    if report.failures:
        print(report.failure_report(), file=sys.stderr)
    merge_into(ctx, report)
    print(report.summary(), file=sys.stderr)


def _cmd_figure(args: argparse.Namespace) -> int:
    ctx = _make_ctx(args)
    plan_by_number = {
        2: {"figure2": (tuple(args.cores), tuple(args.groups))},
        3: {"figure3": tuple(args.groups)},
        4: {"figure4": True},
        5: {"figure5": True},
    }
    _prewarm(ctx, args, **plan_by_number[args.number])
    if args.number == 2:
        rows = run_figure2(
            ctx, core_counts=tuple(args.cores), groups=tuple(args.groups)
        )
        print(format_figure2(rows))
    elif args.number == 3:
        print(format_figure3(run_figure3(ctx, groups=tuple(args.groups))))
    elif args.number == 4:
        print(format_figure4(run_figure4(ctx)))
    elif args.number == 5:
        print(format_figure5(run_figure5(ctx)))
    else:  # pragma: no cover - argparse choices guard
        raise ValueError(f"no figure {args.number}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    ctx = _make_ctx(args)
    _prewarm(ctx, args, table2=True)
    print(format_table2(run_table2(ctx)))
    return 0


def _arena_spec(args: argparse.Namespace):
    mixes = tuple(args.mixes)
    policies = (tuple(p.upper() for p in args.policies)
                if args.policies else None)
    return mixes, policies


def _cmd_arena(args: argparse.Namespace) -> int:
    from repro.experiments.arena import (
        arena_anatomy,
        format_arena,
        format_arena_per_mix,
        run_arena,
        run_arena_per_mix,
    )

    mixes, policies = _arena_spec(args)
    ctx = _make_ctx(args)
    _prewarm(ctx, args, arena=(mixes, policies))
    if args.per_mix:
        print(format_arena_per_mix(
            run_arena_per_mix(ctx, mixes=mixes, policies=policies)))
    else:
        print(format_arena(
            run_arena(ctx, mixes=mixes, policies=policies), mixes))
    if args.anatomy:
        print()
        print(arena_anatomy(ctx, mixes=mixes, policies=policies,
                            span_sample=args.span_sample))
    return 0


def _cmd_cloud(args: argparse.Namespace) -> int:
    from repro.experiments.cloud import format_cloud, run_cloud_table

    mixes = tuple(args.mixes)
    policies = (tuple(p.upper() for p in args.policies)
                if args.policies else None)
    ctx = _make_ctx(args)
    _prewarm(ctx, args, cloud=(mixes, policies))
    print(format_cloud(run_cloud_table(ctx, mixes=mixes, policies=policies)))
    return 0


# -- distributed sweep verbs (docs/DISTRIBUTED.md) ---------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.service.coordinator import Coordinator
    from repro.telemetry.bus import TelemetryBus

    store = (None if args.no_store
             else ResultCache(root=args.store or DEFAULT_CACHE_DIR, mode="rw"))
    bus = TelemetryBus(retain=False)

    def narrate(ev):
        if ev.name == "service.cell" and not args.verbose:
            return
        detail = " ".join(f"{k}={v}" for k, v in sorted(ev.args.items()))
        print(f"  [{ev.name}] {detail}", file=sys.stderr)

    bus.subscribe(narrate)

    observer = None
    if (args.telemetry or args.trace_out or args.metrics_out
            or args.prometheus_out):
        from repro.telemetry.fleet import FleetObserver

        observer = FleetObserver(
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
            prometheus_out=args.prometheus_out,
            snapshot_every=args.sample_every,
        )

    async def serve() -> Coordinator:
        coord = Coordinator(
            host=args.host, port=args.port, store=store,
            lease_seconds=args.lease, max_attempts=args.max_attempts,
            bus=bus, observer=observer,
        )
        await coord.start()
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
    from repro.experiments.parallel import merge_into, plan_cells
    from repro.service.client import (
        coordinator_status,
        request_shutdown,
        submit_cells,
    )
    from repro.telemetry.bus import TelemetryBus

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

    ctx = _make_ctx(args)
    plan_by_section = {
        "table2": {"table2": True},
        "figure2": {"figure2": (tuple(args.cores), tuple(args.groups))},
        "figure3": {"figure3": tuple(args.groups)},
        "figure4": {"figure4": True},
        "figure5": {"figure5": True},
        "arena": {"arena": (tuple(args.mixes), None)},
        "cloud": {"cloud": (tuple(args.mixes), None)},
    }
    cells = plan_cells(ctx, **plan_by_section[args.section])

    bus = TelemetryBus(retain=False)

    def narrate(ev):
        if ev.name != "experiment.cell":
            return
        a = ev.args
        print(f"  [{a['done']}/{a['total']}] {a['status']:<7} {a['key']}",
              file=sys.stderr)

    bus.subscribe(narrate)
    trace_events: list[tuple[float, dict]] = []
    if args.trace_out or args.telemetry:
        import time as _time

        def record(ev):
            if ev.name == "experiment.cell":
                trace_events.append((_time.time(), dict(ev.args)))

        bus.subscribe(record)
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
        # Client-lane fleet trace: one instant per completed cell, so the
        # merged timeline shows when results landed back at the client.
        from repro.telemetry.fleet import FleetTraceWriter

        trace = FleetTraceWriter(args.trace_out, role="client",
                                 run_id=report.run_id)
        for t, a in trace_events:
            trace.event(f"cell {a['key'].split(':cfg=')[0]}", "i",
                        track="cells", t=t, status=a["status"],
                        done=a["done"], total=a["total"])
        trace.close(cells=len(trace_events))
        print(f"fleet trace: {args.trace_out}", file=sys.stderr)
    if args.telemetry:
        doc = coordinator_status(args.coordinator)
        if doc.get("fleet"):
            from repro.telemetry.fleet import render_dashboard

            print(render_dashboard(doc, len(report.results), len(cells)),
                  file=sys.stderr)

    if args.section == "table2":
        print(format_table2(run_table2(ctx)))
    elif args.section == "figure2":
        print(format_figure2(run_figure2(
            ctx, core_counts=tuple(args.cores), groups=tuple(args.groups))))
    elif args.section == "figure3":
        print(format_figure3(run_figure3(ctx, groups=tuple(args.groups))))
    elif args.section == "figure4":
        print(format_figure4(run_figure4(ctx)))
    elif args.section == "figure5":
        print(format_figure5(run_figure5(ctx)))
    elif args.section == "arena":
        from repro.experiments.arena import format_arena, run_arena

        mixes = tuple(args.mixes)
        print(format_arena(run_arena(ctx, mixes=mixes), mixes))
    elif args.section == "cloud":
        from repro.experiments.cloud import format_cloud, run_cloud_table

        print(format_cloud(run_cloud_table(ctx, mixes=tuple(args.mixes))))
    return 0


def _cmd_obs_merge(args: argparse.Namespace) -> int:
    from repro.telemetry.fleet import write_merged_trace

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
                       metavar="BASE",
                       help="cProfile the engine: write BASE.pstats and "
                            "BASE.folded (collapsed stacks) and print the "
                            "top functions by cumulative time "
                            "(default BASE: 'profile')")

    p = sub.add_parser("profile", help="single-core ME profiling")
    _add_common(p)
    p.add_argument("--app", help="benchmark name (default: all 26)")
    add_engine_profile(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("run", help="run one workload under one policy")
    _add_common(p)
    p.add_argument("workload", help="Table 3 mix name, e.g. 4MEM-1")
    p.add_argument("policy", help="policy name, e.g. ME-LREQ")
    g = p.add_argument_group("telemetry (docs/OBSERVABILITY.md)")
    g.add_argument("--telemetry", action="store_true",
                   help="capture the sampled time series and print a summary")
    g.add_argument("--sample-every", type=_positive_int, default=2000,
                   metavar="CYCLES",
                   help="sampler epoch length in cycles (default 2000)")
    g.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace-event file (Perfetto-loadable); "
                        "implies --telemetry and decision capture")
    g.add_argument("--trace-commands", action="store_true",
                   help="with --trace-out, also capture per-DRAM-command events")
    g.add_argument("--telemetry-out", metavar="PATH",
                   help="write the telemetry stream as JSONL; implies --telemetry")
    g.add_argument("--telemetry-csv", metavar="PATH",
                   help="write the sampled series as CSV; implies --telemetry")
    g.add_argument("--spans", action="store_true",
                   help="trace sampled request lifecycles and print the "
                        "per-core latency-attribution table")
    g.add_argument("--span-sample", type=_positive_int, default=64, metavar="N",
                   help="trace every Nth request (default 64; 1 = all)")
    g.add_argument("--spans-out", metavar="PATH",
                   help="write traced spans + attribution as JSONL; "
                        "implies --spans")
    add_engine_profile(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    _add_common(p)
    p.add_argument("number", type=int, choices=(2, 3, 4, 5))
    p.add_argument("--cores", type=int, nargs="+", default=[4],
                   choices=(2, 4, 8))
    p.add_argument("--groups", nargs="+", default=["MEM"])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    _add_parallel(p)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("table2", help="regenerate Table 2")
    _add_common(p)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    _add_parallel(p)
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser(
        "arena",
        help="rank every registered policy on speedup, fairness and "
             "hardware cost (docs/POLICIES.md)")
    _add_common(p)
    p.add_argument("--mixes", nargs="+", default=["smoke"],
                   help="mix-set names (smoke, 2core, 4core, 8core, full) "
                        "and/or explicit Table 3 mix names "
                        "(default: smoke)")
    p.add_argument("--policies", nargs="+", default=None, metavar="NAME",
                   help="restrict the field (default: every registered "
                        "policy plus FIX-DESC)")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
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
    p.set_defaults(fn=_cmd_arena)

    p = sub.add_parser(
        "cloud",
        help="tail-latency / SLO table for the open-loop cloud workload "
             "family (docs/WORKLOADS.md)")
    _add_common(p)
    p.add_argument("--mixes", nargs="+", default=["smoke"],
                   help="cloud mix-set names (smoke, 2core, 4core, 8core, "
                        "full) and/or explicit cloud mix names "
                        "(default: smoke)")
    p.add_argument("--policies", nargs="+", default=None, metavar="NAME",
                   help="restrict the field (default: every registered "
                        "policy plus FIX-DESC)")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    _add_parallel(p)
    p.set_defaults(fn=_cmd_cloud)

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
    p.add_argument("--lease", type=float, default=60.0, metavar="SECONDS",
                   help="cell lease duration before a silent worker is "
                        "presumed dead (default 60)")
    p.add_argument("--max-attempts", type=int, default=3, metavar="N",
                   help="attempts per cell before it is reported failed")
    p.add_argument("--verbose", action="store_true",
                   help="also narrate per-cell service events")
    g = p.add_argument_group("fleet observability (docs/OBSERVABILITY.md)")
    g.add_argument("--telemetry", action="store_true",
                   help="collect fleet metrics (lease/queue/worker "
                        "counters) and serve them via status requests")
    g.add_argument("--trace-out", metavar="PATH",
                   help="record coordinator lease slices as a fleet trace "
                        "(JSONL; merge with 'repro obs merge-trace'); "
                        "implies --telemetry")
    g.add_argument("--metrics-out", metavar="PATH",
                   help="append periodic metrics snapshots as JSONL; "
                        "implies --telemetry")
    g.add_argument("--prometheus-out", metavar="PATH",
                   help="write the latest snapshot in Prometheus text "
                        "format (textfile-collector ready); implies "
                        "--telemetry")
    g.add_argument("--sample-every", type=float, default=5.0,
                   metavar="SECONDS",
                   help="metrics snapshot period (default 5)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("worker", help="attach a sweep worker")
    p.add_argument("coordinator", metavar="HOST:PORT")
    p.add_argument("--id", default=None, help="worker name (default: auto)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="local read-through result store (optional)")
    p.add_argument("--connect-retries", type=int, default=10, metavar="N",
                   help="retry the initial connection N times, 0.5s apart "
                        "(default 10 — lets the worker start first)")
    g = p.add_argument_group("fleet observability (docs/OBSERVABILITY.md)")
    g.add_argument("--telemetry", action="store_true",
                   help="record a fleet trace of executed cells "
                        "(default file: fleet-worker-<id>.jsonl)")
    g.add_argument("--trace-out", metavar="PATH",
                   help="fleet trace file (JSONL; merge with "
                        "'repro obs merge-trace'); implies --telemetry")
    g.add_argument("--sample-every", type=float, default=30.0,
                   metavar="SECONDS",
                   help="progress-snapshot period in the trace (default 30)")
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "submit",
        help="run a figure/table sweep on a coordinator, byte-identical "
             "to the serial command")
    p.add_argument("coordinator", metavar="HOST:PORT")
    p.add_argument("section", nargs="?", default="figure2",
                   choices=("table2", "figure2", "figure3", "figure4",
                            "figure5", "arena", "cloud"))
    _add_common(p)
    p.add_argument("--cores", type=int, nargs="+", default=[4],
                   choices=(2, 4, 8))
    p.add_argument("--groups", nargs="+", default=["MEM"])
    p.add_argument("--mixes", nargs="+", default=["smoke"],
                   help="arena/cloud sections: mix-set and/or mix names")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
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
    g.add_argument("--trace-out", metavar="PATH",
                   help="record result arrivals as a client-lane fleet "
                        "trace (JSONL; merge with 'repro obs merge-trace')")
    g.add_argument("--sample-every", type=float, default=1.0,
                   metavar="SECONDS",
                   help="--watch refresh period (default 1)")
    p.set_defaults(fn=_cmd_submit)

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
