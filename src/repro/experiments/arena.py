"""The policy arena: every registered scheduler, ranked on one table.

The paper compares five schemes on three axes — throughput (SMT
speedup), fairness (per-core latency spread) and hardware cost (the
Fig. 1 table) — but only ever two axes at a time, and only for its own
policies.  The arena closes the loop for the whole registry: every
registered policy (plus a descending fixed-priority entry) runs over a
chosen Table 3 mix set, and one canonical table reports

* **weighted speedup** — mean Snavely SMT speedup over the mixes
  (:func:`repro.metrics.speedup.smt_speedup`), the ranking column;
* **unfairness** — mean max/min-slowdown ratio, and **max slowdown** —
  the single worst per-core slowdown observed anywhere in the sweep
  (the starvation axis that sank ME in Figure 4);
* **hardware complexity** — priority-table bits and per-core /
  total state from each policy's
  :meth:`~repro.core.policy.SchedulingPolicy.describe_hardware` sheet;
* **fingerprint** — a short digest over the float-hex per-core IPCs and
  latencies of every (mix, seed) run, so any behavioural drift in any
  policy shows up as a one-line table diff (the golden-stats idea,
  extended to the whole registry).

Determinism contract: rows are computed from seed-averaged
:class:`~repro.experiments.harness.ExperimentContext` memo entries and
sorted by (speedup desc, name asc); floats render at fixed precision and
fingerprints hash float *hex* — so the rendered table is byte-identical
across serial, ``--jobs N`` and distributed execution (the runners
pre-warm the same memo the serial path reads).

Latency anatomy: :func:`arena_anatomy` reruns one mix per policy with
request-span tracing and renders the PR 2 stall-attribution breakdown
(:mod:`repro.telemetry.attribution`) — where each policy's latency
actually goes (queueing vs bank vs bus vs drain).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.registry import policy_complexity, registered_policies
from repro.experiments.cells import eval_cell, execute_cell
from repro.experiments.harness import ExperimentContext, mean
from repro.metrics.speedup import slowdowns
from repro.workloads.mixes import Mix, mixes_for, workload_by_name

__all__ = [
    "ARENA_MIX_SETS",
    "ArenaMixRow",
    "ArenaRow",
    "arena_anatomy",
    "arena_cells",
    "arena_mixes",
    "arena_policies",
    "concrete_policy",
    "format_arena",
    "format_arena_per_mix",
    "run_arena",
    "run_arena_per_mix",
]

#: named mix sets the CLI accepts; "smoke" is the CI-sized pair
ARENA_MIX_SETS: dict[str, tuple[str, ...]] = {
    "smoke": ("2MEM-1", "2MIX-1"),
    "2core": tuple(m.name for m in mixes_for(2)),
    "4core": tuple(m.name for m in mixes_for(4)),
    "8core": tuple(m.name for m in mixes_for(8)),
    "full": tuple(m.name for m in mixes_for(2))
    + tuple(m.name for m in mixes_for(4))
    + tuple(m.name for m in mixes_for(8)),
}

#: arena label of the fixed-priority entrant (resolved per mix to the
#: descending order, e.g. FIX-10 on 2 cores, FIX-3210 on 4)
FIX_LABEL = "FIX-DESC"


def arena_policies() -> tuple[str, ...]:
    """Every concrete registry name plus the fixed-priority entrant."""
    return tuple(registered_policies()) + (FIX_LABEL,)


def arena_mixes(names: tuple[str, ...]) -> tuple[Mix, ...]:
    """Resolve mix-set names and/or explicit mix names to Mix objects."""
    out: list[Mix] = []
    for name in names:
        if name.lower() in ARENA_MIX_SETS:
            out.extend(workload_by_name(m) for m in ARENA_MIX_SETS[name.lower()])
        else:
            out.append(workload_by_name(name))
    return tuple(out)


def concrete_policy(label: str, mix: Mix) -> str:
    """Resolve an arena label to the registry/make_policy name for a mix.

    ``FIX-DESC`` becomes the descending permutation sized to the mix
    (core N-1 highest); every other label is already concrete.
    """
    if label.upper() == FIX_LABEL:
        return "FIX-" + "".join(str(c) for c in range(mix.num_cores - 1, -1, -1))
    return label.upper()


def arena_cells(
    mixes: tuple[str, ...], policies: tuple[str, ...] | None = None
) -> list[tuple[str, str]]:
    """(workload, policy) pairs behind :func:`run_arena`, in run order —
    the enumerator :func:`repro.experiments.parallel.plan_cells` shards
    (FIX labels resolved to their per-mix concrete names)."""
    pols = policies if policies is not None else arena_policies()
    return [
        (mix.name, concrete_policy(p, mix))
        for mix in arena_mixes(mixes)
        for p in pols
    ]


@dataclass(frozen=True)
class ArenaRow:
    """One policy's aggregate scores over the arena's mix set."""

    policy: str
    weighted_speedup: float  # mean SMT speedup over mixes (rank column)
    unfairness: float  # mean max/min slowdown over mixes
    max_slowdown: float  # worst per-core slowdown anywhere in the sweep
    avg_read_latency: float  # mean of per-mix average read latencies
    table_bits: int  # priority-table SRAM
    state_bytes: float  # total added state at the set's max core count
    fingerprint: str  # digest over float-hex per-core results


def run_arena(
    ctx: ExperimentContext,
    mixes: tuple[str, ...] = ("smoke",),
    policies: tuple[str, ...] | None = None,
) -> list[ArenaRow]:
    """Score every policy over the mix set; rows ranked best-first.

    Ranking is by weighted speedup descending, name ascending on ties —
    a total, deterministic order.
    """
    pols = policies if policies is not None else arena_policies()
    resolved = arena_mixes(mixes)
    if not resolved:
        raise ValueError("arena needs at least one mix")
    max_cores = max(m.num_cores for m in resolved)
    rows: list[ArenaRow] = []
    for label in pols:
        speedups: list[float] = []
        unfairs: list[float] = []
        lats: list[float] = []
        worst = 0.0
        digest = hashlib.sha256()
        for mix in resolved:
            name = concrete_policy(label, mix)
            out = ctx.outcome(mix, name)
            speedups.append(out.smt_speedup)
            unfairs.append(out.unfairness)
            lats.append(out.avg_read_latency)
            for seed in ctx.seeds:
                r = ctx.run(mix, name, seed)
                single = ctx.single_ipcs(mix, seed)
                worst = max(worst, max(slowdowns(r.ipcs(), single)))
                digest.update(f"{mix.name}:{seed}".encode())
                for core in r.per_core:
                    digest.update(core.ipc.hex().encode())
                    digest.update(core.avg_read_latency.hex().encode())
        cost = policy_complexity(label, max_cores)
        rows.append(
            ArenaRow(
                policy=label.upper(),
                weighted_speedup=mean(speedups),
                unfairness=mean(unfairs),
                max_slowdown=worst,
                avg_read_latency=mean(lats),
                table_bits=cost.priority_table_bits,
                state_bytes=cost.total_bytes(max_cores),
                fingerprint=digest.hexdigest()[:12],
            )
        )
    rows.sort(key=lambda r: (-r.weighted_speedup, r.policy))
    return rows


def format_arena(rows: list[ArenaRow], mixes: tuple[str, ...] = ()) -> str:
    """Render the canonical ranking table (byte-stable)."""
    if not rows:
        return "(no data)"
    lines: list[str] = []
    if mixes:
        lines.append(f"== policy arena ({', '.join(mixes)}) ==")
    else:
        lines.append("== policy arena ==")
    lines.append(
        f"{'#':>2} {'policy':<15} {'wspeedup':>9} {'unfair':>7} "
        f"{'maxslow':>8} {'avg lat':>8} {'tbl bits':>8} {'state B':>8} "
        f"{'fingerprint':>12}"
    )
    for i, r in enumerate(rows, 1):
        lines.append(
            f"{i:>2} {r.policy:<15} {r.weighted_speedup:>9.3f} "
            f"{r.unfairness:>7.2f} {r.max_slowdown:>8.2f} "
            f"{r.avg_read_latency:>8.1f} {r.table_bits:>8d} "
            f"{r.state_bytes:>8.1f} {r.fingerprint:>12}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class ArenaMixRow:
    """One policy's scores on one mix (the per-mix drill-down)."""

    mix: str
    policy: str
    smt_speedup: float  # seed-averaged Snavely speedup on this mix
    unfairness: float  # seed-averaged max/min-slowdown ratio
    max_slowdown: float  # worst per-core slowdown over this mix's seeds
    avg_read_latency: float  # seed-averaged mean read latency
    fingerprint: str  # digest over this mix's float-hex per-core results


def run_arena_per_mix(
    ctx: ExperimentContext,
    mixes: tuple[str, ...] = ("smoke",),
    policies: tuple[str, ...] | None = None,
) -> list[ArenaMixRow]:
    """The per-mix drill-down behind ``repro arena --per-mix``.

    Same cells as :func:`run_arena` (the planner/caches are shared), but
    nothing is averaged over mixes: each (mix, policy) pair gets its own
    row, ranked within the mix by speedup descending, name ascending —
    the table that shows *where* a policy's average comes from.
    """
    pols = policies if policies is not None else arena_policies()
    resolved = arena_mixes(mixes)
    if not resolved:
        raise ValueError("arena needs at least one mix")
    rows: list[ArenaMixRow] = []
    for mix in resolved:
        mix_rows: list[ArenaMixRow] = []
        for label in pols:
            name = concrete_policy(label, mix)
            out = ctx.outcome(mix, name)
            worst = 0.0
            digest = hashlib.sha256()
            for seed in ctx.seeds:
                r = ctx.run(mix, name, seed)
                single = ctx.single_ipcs(mix, seed)
                worst = max(worst, max(slowdowns(r.ipcs(), single)))
                digest.update(f"{mix.name}:{seed}".encode())
                for core in r.per_core:
                    digest.update(core.ipc.hex().encode())
                    digest.update(core.avg_read_latency.hex().encode())
            mix_rows.append(
                ArenaMixRow(
                    mix=mix.name,
                    policy=label.upper(),
                    smt_speedup=out.smt_speedup,
                    unfairness=out.unfairness,
                    max_slowdown=worst,
                    avg_read_latency=out.avg_read_latency,
                    fingerprint=digest.hexdigest()[:12],
                )
            )
        mix_rows.sort(key=lambda r: (-r.smt_speedup, r.policy))
        rows.extend(mix_rows)
    return rows


def format_arena_per_mix(rows: list[ArenaMixRow]) -> str:
    """Render the per-mix drill-down (byte-stable, grouped by mix)."""
    if not rows:
        return "(no data)"
    lines = [
        "== policy arena: per-mix drill-down ==",
        f"{'#':>2} {'mix':<8} {'policy':<15} {'speedup':>8} {'unfair':>7} "
        f"{'maxslow':>8} {'avg lat':>8} {'fingerprint':>12}",
    ]
    rank = 0
    last_mix: str | None = None
    for r in rows:
        if r.mix != last_mix:
            if last_mix is not None:
                lines.append("")
            last_mix = r.mix
            rank = 0
        rank += 1
        lines.append(
            f"{rank:>2} {r.mix:<8} {r.policy:<15} {r.smt_speedup:>8.3f} "
            f"{r.unfairness:>7.2f} {r.max_slowdown:>8.2f} "
            f"{r.avg_read_latency:>8.1f} {r.fingerprint:>12}"
        )
    return "\n".join(lines)


def arena_anatomy(
    ctx: ExperimentContext,
    mixes: tuple[str, ...] = ("smoke",),
    policies: tuple[str, ...] | None = None,
    span_sample: int = 16,
) -> str:
    """Per-policy latency anatomy on the mix set's first mix.

    Reruns the first mix's eval cell once per policy with request-span
    tracing and renders the stall-attribution breakdown under each
    policy heading.  These capture runs bypass the memo and the cache
    (they carry a live telemetry hub), so the anatomy is an optional
    appendix, not part of the ranking contract.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.attribution import attribute, format_attribution

    pols = policies if policies is not None else arena_policies()
    mix = arena_mixes(mixes)[0]
    seed = ctx.seeds[0]
    blocks: list[str] = [f"== latency anatomy ({mix.name}, seed {seed}) =="]
    for label in pols:
        hub = Telemetry(capture_spans=True, span_sample=span_sample)
        cell = eval_cell(ctx, mix.name, concrete_policy(label, mix), seed)
        execute_cell(ctx.resolve(cell), telemetry=hub)
        report = attribute(hub, kind="read")
        blocks.append(f"\n-- {label.upper()} --")
        blocks.append(format_attribution(report))
    return "\n".join(blocks)
