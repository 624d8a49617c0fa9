#!/usr/bin/env python3
"""Regenerate every paper experiment and emit the EXPERIMENTS.md tables.

This is the record-keeping companion of the benchmark harness: it runs
Table 2 and Figures 2-5 (plus the ablations) at the documented budget and
prints a markdown report of paper-vs-measured values to stdout.

``--jobs N`` shards the underlying simulation cells across N worker
processes and merges them back deterministically, so the emitted tables
are byte-identical to a serial run (pass ``--stable-output`` to also
suppress the wall-time annotations when diffing).  Results are recorded
in an on-disk cache (``.repro-cache/`` by default); ``--resume`` reads
it back so an interrupted run completes only the missing cells, and
``--no-cache`` disables the disk entirely.

``--coordinator HOST:PORT`` executes the cells on a distributed sweep
service (``repro serve`` + ``repro worker``) instead of a local pool —
same bit-identical merge, see docs/DISTRIBUTED.md.

Usage:
    python scripts/run_all_experiments.py [--budget 30000] [--seeds 1 2 3]
        [--jobs N] [--coordinator HOST:PORT] [--resume] [--no-cache]
        [--cache-dir DIR] [--only table2 figure2 ...] [--stable-output]
        [--out EXPERIMENTS-data.md] [--skip-ablations] [--quick]
"""

import argparse
import sys
import time

from repro.cli import (
    _coordinator_addr,
    _non_negative_int,
    _output_path,
    _positive_int,
    _service_call,
)
from repro.experiments import (
    ExperimentContext,
    ablation_lookahead,
    ablation_page_policy,
    ablation_table_bits,
    ablation_write_drain,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table2,
)
from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.figure2 import average_gains
from repro.experiments.figure3 import spread
from repro.experiments.parallel import (
    default_jobs,
    merge_into,
    plan_cells,
    run_cells,
)
from repro.experiments.table2 import rank_correlation
from repro.telemetry.bus import TelemetryBus

POLICIES = ("HF-RF", "ME", "RR", "LREQ", "ME-LREQ")
SECTIONS = ("table2", "figure2", "figure3", "figure4", "figure5", "ablations")


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for r in rows:
        out.append("| " + " | ".join(str(x) for x in r) + " |")
    return "\n".join(out)


def _stamp(t0, stable):
    """Wall-time annotation, or nothing under ``--stable-output``."""
    return "" if stable else f" ({time.time()-t0:.0f}s)"


def section_table2(ctx, out, stable=False):
    t0 = time.time()
    rows = run_table2(ctx)
    out.append("## Table 2 — application class and memory efficiency\n")
    out.append(
        md_table(
            ["app", "code", "class", "paper ME", "measured ME", "IPC", "BW GB/s"],
            [
                (r.app, r.code, r.klass, f"{r.paper_me:.0f}",
                 f"{r.measured_me:.3f}", f"{r.measured_ipc:.2f}",
                 f"{r.measured_bw_gbps:.3f}")
                for r in sorted(rows, key=lambda x: x.code)
            ],
        )
    )
    rho = rank_correlation(rows)
    out.append(f"\nSpearman rank correlation vs the published ME values: "
               f"**{rho:.3f}**{_stamp(t0, stable)}\n")


def section_figure2(ctx, out, core_counts, groups, stable=False):
    t0 = time.time()
    rows = run_figure2(ctx, core_counts=core_counts, groups=groups)
    out.append("## Figure 2 — SMT speedup of the five policies\n")
    current = None
    for r in rows:
        key = (r.num_cores, r.group)
        if key != current:
            current = key
            out.append(f"\n### {r.num_cores}-core {r.group}\n")
            out.append("| workload | " + " | ".join(POLICIES) + " |")
            out.append("|" + "|".join("---" for _ in range(len(POLICIES) + 1)) + "|")
        out.append(
            f"| {r.workload} | "
            + " | ".join(f"{r.speedup(p):.3f}" for p in POLICIES)
            + " |"
        )
    out.append("\n### Average gain over HF-RF\n")
    gains = average_gains(rows)
    out.append("| cores | group | " + " | ".join(POLICIES[1:]) + " |")
    out.append("|" + "|".join("---" for _ in range(len(POLICIES) + 1)) + "|")
    seen = sorted({(n, g) for (n, g, _p) in gains})
    for n, g in seen:
        out.append(
            f"| {n} | {g} | "
            + " | ".join(f"{gains[(n, g, p)]:+.1%}" for p in POLICIES[1:])
            + " |"
        )
    if not stable:
        out.append(f"\n({time.time()-t0:.0f}s)\n")
    return rows


def section_figure3(ctx, out, stable=False):
    t0 = time.time()
    rows = run_figure3(ctx, groups=("MEM",))
    out.append("## Figure 3 — simple fixed-priority schemes (4-core MEM)\n")
    pols = ("HF-RF", "ME", "FIX-3210", "FIX-0123")
    out.append(
        md_table(
            ["workload"] + list(pols),
            [
                (r.workload, *(f"{r.speedup(p):.3f}" for p in pols))
                for r in rows
            ],
        )
    )
    for p in pols[1:]:
        best, worst = spread(rows, p)
        out.append(f"\n- {p}: best {best:+.1%}, worst {worst:+.1%} vs HF-RF")
    if not stable:
        out.append(f"\n({time.time()-t0:.0f}s)\n")


def section_figure4(ctx, out, stable=False):
    t0 = time.time()
    res = run_figure4(ctx)
    out.append("## Figure 4 — memory read latency (4-core MEM)\n")
    out.append("### Left: average read latency (cycles)\n")
    out.append(
        md_table(
            ["workload"] + list(POLICIES),
            [
                (wl, *(f"{by[p].avg_read_latency:.0f}" for p in POLICIES))
                for wl, by in res.left.items()
            ]
            + [("**average**", *(f"{res.avg_latency(p):.0f}" for p in POLICIES))],
        )
    )
    out.append("\n### Right: per-core read latency (cycles)\n")
    for wl, by in res.right.items():
        out.append(f"\n**{wl}**\n")
        out.append(
            md_table(
                ["policy", "core0", "core1", "core2", "core3", "max/min"],
                [
                    (p, *(f"{x:.0f}" for x in lats),
                     f"{res.latency_spread(wl, p):.2f}x")
                    for p, lats in by.items()
                ],
            )
        )
    if not stable:
        out.append(f"\n({time.time()-t0:.0f}s)\n")


def section_figure5(ctx, out, stable=False):
    t0 = time.time()
    res = run_figure5(ctx)
    out.append("## Figure 5 — unfairness (4-core MEM)\n")
    out.append(
        md_table(
            ["workload"] + list(POLICIES),
            [
                (wl, *(f"{by[p].unfairness:.2f}" for p in POLICIES))
                for wl, by in res.cells.items()
            ]
            + [("**average**", *(f"{res.avg_unfairness(p):.2f}" for p in POLICIES))],
        )
    )
    for base in ("HF-RF", "RR", "LREQ"):
        out.append(
            f"\n- ME-LREQ unfairness change vs {base}: "
            f"{-res.reduction_vs('ME-LREQ', base):+.1%} "
            f"(negative = fairer)"
        )
    if not stable:
        out.append(f"\n({time.time()-t0:.0f}s)\n")


def section_ablations(ctx, out, stable=False):
    t0 = time.time()
    out.append("## Ablations (extensions beyond the paper)\n")
    for title, res in (
        ("ME-LREQ priority-table geometry (4MEM-1, SMT speedup)",
         ablation_table_bits(ctx)),
        ("Page policy (HF-RF, 4MEM-1, SMT speedup)", ablation_page_policy(ctx)),
        ("Write-drain watermarks (HF-RF, 4MEM-1, SMT speedup)",
         ablation_write_drain(ctx)),
        ("Core-lookahead robustness (HF-RF, 4MEM-1, SMT speedup)",
         ablation_lookahead(ctx)),
    ):
        out.append(f"\n### {title}\n")
        out.append(md_table(["variant", "value"],
                            [(k, f"{v:.3f}") for k, v in res.items()]))
    if not stable:
        out.append(f"\n({time.time()-t0:.0f}s)\n")


def _make_cache(args):
    """Resolve the cache flags: None (--no-cache), rw (--resume) or write."""
    if args.no_cache:
        return None
    mode = "rw" if args.resume else "write"
    return ResultCache(root=args.cache_dir, mode=mode)


def _progress_bus():
    """A telemetry bus that narrates cell completions on stderr."""
    bus = TelemetryBus(retain=False)

    def show(ev):
        if ev.name != "experiment.cell":
            return
        a = ev.args
        print(f"  [{a['done']}/{a['total']}] {a['status']:<7} "
              f"{a['key']} ({a['seconds']}s)", file=sys.stderr)

    bus.subscribe(show)
    return bus


def prewarm(ctx, sections, args) -> None:
    """Plan + execute every cell in parallel, then merge into ``ctx``."""
    plan_kwargs = {
        "table2": "table2" in sections,
        "figure3": ("MEM",) if "figure3" in sections else None,
        "figure4": "figure4" in sections,
        "figure5": "figure5" in sections,
        "ablations": "ablations" in sections,
    }
    if args.quick:
        plan_kwargs["figure2"] = ((4,), ("MEM",))
    elif "figure2" in sections:
        plan_kwargs["figure2"] = ((2, 4, 8), ("MEM", "MIX"))
    cells = plan_cells(ctx, **plan_kwargs)
    if args.coordinator:
        from repro.service.client import submit_cells

        print(f"prewarm: {len(cells)} cells via coordinator "
              f"{args.coordinator}", file=sys.stderr)
        with _service_call("run_all_experiments.py", args.coordinator):
            report = submit_cells(args.coordinator, cells,
                                  bus=_progress_bus())
    else:
        jobs = args.jobs if args.jobs > 0 else default_jobs()
        print(f"prewarm: {len(cells)} cells over {jobs} jobs",
              file=sys.stderr)
        report = run_cells(cells, jobs=jobs, cache=ctx.cache,
                           bus=_progress_bus())
    print(f"prewarm: {report.summary()}", file=sys.stderr)
    if report.failures:
        # One retry already happened per cell; anything still failing is
        # reported here and recomputed serially below (where a genuine
        # crash surfaces with a full traceback).
        print(report.failure_report(), file=sys.stderr)
    merge_into(ctx, report)


def _end_of_run_summary(args, cache) -> None:
    """Cache and store accounting, printed to stderr after the tables.

    Shows where results came from: the local ``.repro-cache/`` counters
    always, and — on a ``--coordinator`` run — the coordinator's
    lifetime stats plus its store hit/miss/verify counters (from the
    fleet metrics snapshot of its status reply).
    """
    lines = ["== end-of-run summary =="]
    if cache is not None:
        lines.append(f"local {cache.stats.line()}  "
                     f"[{cache.root}, mode {cache.mode}]")
    else:
        lines.append("local cache: disabled (--no-cache)")
    if args.coordinator:
        from repro.service.client import coordinator_status

        try:
            doc = coordinator_status(args.coordinator)
        except (OSError, RuntimeError) as exc:
            lines.append(f"coordinator {args.coordinator}: "
                         f"status unavailable ({exc})")
        else:
            s = doc.get("stats", {})
            run = f" (run {doc['run_id']})" if doc.get("run_id") else ""
            lines.append(
                f"coordinator {args.coordinator}{run}: "
                f"{s.get('results', 0)} results, "
                f"{s.get('hits', 0)} store hits, "
                f"{s.get('sha_mismatch', 0)} corrupt payloads, "
                f"{s.get('expired', 0)} expired leases, "
                f"{s.get('failed_cells', 0)} failed cells")
            inst = doc["fleet"]["instruments"]

            def val(name):
                return inst[f"fleet.store.{name}"]["value"]

            lines.append(f"coordinator store: {val('hits')} hits, "
                         f"{val('misses')} misses, "
                         f"{val('verify_failures')} verify failures")
    print("\n".join(lines), file=sys.stderr)


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=_positive_int, default=30_000)
    ap.add_argument("--profile-budget", type=_positive_int, default=20_000)
    ap.add_argument("--warmup", type=int, default=None,
                    help="warmup instructions per core (default: harness)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--out", type=_output_path,
                    help="write the markdown here as well as stdout")
    ap.add_argument("--skip-ablations", action="store_true")
    ap.add_argument("--quick", action="store_true",
                    help="4-core MEM Figure 2 panel only (smoke run)")
    ap.add_argument("--only", nargs="+", choices=SECTIONS, metavar="SECTION",
                    help=f"run a subset of sections: {', '.join(SECTIONS)}")
    ap.add_argument("--jobs", type=_non_negative_int, default=1, metavar="N",
                    help="shard simulation cells over N worker processes "
                         "(0 = one per CPU); output stays byte-identical")
    ap.add_argument("--coordinator", type=_coordinator_addr, default=None,
                    metavar="HOST:PORT",
                    help="run the cells on a distributed sweep coordinator "
                         "(repro serve) instead of a local pool; output "
                         "stays byte-identical (docs/DISTRIBUTED.md)")
    ap.add_argument("--resume", action="store_true",
                    help="reuse cached cell results (continue an "
                         "interrupted or incremental regeneration)")
    ap.add_argument("--no-cache", action="store_true",
                    help="do not read or write the on-disk result cache")
    ap.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                    help="result cache directory (default: %(default)s)")
    ap.add_argument("--stable-output", action="store_true",
                    help="omit wall-time annotations (byte-comparable runs)")
    args = ap.parse_args(argv)

    cache = _make_cache(args)
    ctx_kwargs = dict(
        inst_budget=args.budget,
        seeds=tuple(args.seeds),
        profile_budget=args.profile_budget,
        cache=cache,
    )
    if args.warmup is not None:
        ctx_kwargs["warmup_insts"] = args.warmup
    ctx = ExperimentContext(**ctx_kwargs)

    if args.quick:
        sections = ("figure2",)
    else:
        sections = tuple(s for s in SECTIONS if args.only is None
                         or s in args.only)
        if args.skip_ablations:
            sections = tuple(s for s in sections if s != "ablations")

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    if jobs > 1 or args.coordinator:
        prewarm(ctx, sections, args)

    out: list[str] = []
    out.append(
        f"_Generated by scripts/run_all_experiments.py — budget "
        f"{args.budget} instructions/core, seeds {args.seeds}._\n"
    )
    t0 = time.time()
    stable = args.stable_output
    if args.quick:
        section_figure2(ctx, out, core_counts=(4,), groups=("MEM",),
                        stable=stable)
    else:
        if "table2" in sections:
            section_table2(ctx, out, stable=stable)
        if "figure2" in sections:
            section_figure2(ctx, out, core_counts=(2, 4, 8),
                            groups=("MEM", "MIX"), stable=stable)
        if "figure3" in sections:
            section_figure3(ctx, out, stable=stable)
        if "figure4" in sections:
            section_figure4(ctx, out, stable=stable)
        if "figure5" in sections:
            section_figure5(ctx, out, stable=stable)
        if "ablations" in sections:
            section_ablations(ctx, out, stable=stable)
    if not stable:
        out.append(f"\n_Total wall time: {time.time()-t0:.0f}s._")
    _end_of_run_summary(args, cache)
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def main(argv=None) -> int:
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("\ninterrupted — partial results remain in the cache; "
              "re-run with --resume to continue", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
