"""Cloud experiments: tail-latency / SLO tables over the cloud mixes.

This is the datacenter reframing of the paper's Figure 2-style
comparison ("Memory Controller Design Under Cloud Workloads",
arXiv:1611.10316): instead of asking which scheduler maximises weighted
speedup, :func:`run_cloud_table` asks which scheduler *protects tails*
— exact integer p50/p99/p999 read latencies and SLO-violation counts of
the open-loop service streams, next to the weighted speedup of the
co-running batch cores.

Every violating request is decomposed by the PR 2 span engine
(:func:`repro.telemetry.attribution.decompose`), so the table also
answers *which stall blew the tail*: the dominant component of the
violation-attributed cycles (``queue`` when the scheduler is the
bottleneck, ``stall`` when upstream structures saturate, ``drain`` when
write bursts block reads, ...).  The decomposition's conservation
invariant — components sum exactly, in integer cycles, to each
request's measured latency — is enforced per span and re-asserted by
the test suite.

Determinism contract (mirrors :mod:`repro.experiments.arena`): all
statistics are integers or float-hex-stable floats derived from seeded
runs, spans are aggregated in a sorted canonical order, and the
rendered table is byte-identical across process counts and
platforms — pinned by ``tests/golden/golden_cloud.json``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.config import SystemConfig
from repro.core.registry import make_policy
from repro.metrics.speedup import smt_speedup
from repro.metrics.tails import TailStats, tail_stats
from repro.sim.runner import DEFAULT_WARMUP, CoreResult, _core_result
from repro.sim.system import MultiCoreSystem
from repro.telemetry.attribution import COMPONENTS, decompose, drain_windows
from repro.telemetry.hub import Telemetry
from repro.workloads.cloud import (
    CLOUD_MIXES,
    CloudMix,
    cloud_mix_by_name,
    cloud_system_config,
    make_cloud_trace,
    service_by_code,
)
from repro.workloads.synthetic import make_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.harness import ExperimentContext

__all__ = [
    "CLOUD_MIX_SETS",
    "CloudResult",
    "CloudRow",
    "ServiceStats",
    "cloud_cells",
    "cloud_mixes_for",
    "format_cloud",
    "run_cloud",
    "run_cloud_table",
]

#: named mix sets accepted by ``repro cloud --mixes`` (explicit cloud mix
#: names are accepted alongside these)
CLOUD_MIX_SETS: dict[str, tuple[str, ...]] = {
    "smoke": ("2CLD-1",),
    "2core": ("2CLD-1", "2CLD-2"),
    "4core": ("4CLD-1", "4CLD-2"),
    "8core": ("8CLD-1",),
    "full": tuple(m.name for m in CLOUD_MIXES),
}


def cloud_mixes_for(names: Sequence[str]) -> tuple[CloudMix, ...]:
    """Resolve mix-set names and/or explicit cloud mix names, de-duplicated
    in first-appearance order."""
    out: list[CloudMix] = []
    seen: set[str] = set()
    for name in names:
        expanded = CLOUD_MIX_SETS.get(name.lower())
        mix_names = expanded if expanded is not None else (name,)
        for mn in mix_names:
            mix = cloud_mix_by_name(mn)
            if mix.name not in seen:
                seen.add(mix.name)
                out.append(mix)
    return tuple(out)


@dataclass(frozen=True)
class ServiceStats:
    """Exact per-service outcome of one cloud run (all integer cycles).

    ``latencies`` is the ascending-sorted multiset of completed request
    latencies; ``viol_components`` aggregates the seven-component stall
    decomposition over the *violating* requests only, aligned with
    :data:`repro.telemetry.attribution.COMPONENTS`, and sums exactly to
    ``viol_latency_sum`` (the conservation invariant, checked per span).
    """

    code: str
    name: str
    core_id: int
    slo: int
    latencies: tuple[int, ...]
    viol_count: int
    viol_latency_sum: int
    viol_components: tuple[int, ...]  # aligned with COMPONENTS

    @property
    def requests(self) -> int:
        return len(self.latencies)

    def tails(self) -> TailStats:
        return tail_stats(self.latencies)


@dataclass(frozen=True)
class CloudResult:
    """Outcome of one cloud co-run: services + batch cores."""

    mix_name: str
    policy_name: str
    services: tuple[ServiceStats, ...]  # in service-core order
    batch: tuple[CoreResult, ...]  # in batch-core order
    end_cycle: int
    row_hit_rate: float

    def all_latencies(self) -> list[int]:
        out: list[int] = []
        for s in self.services:
            out.extend(s.latencies)
        return out


def run_cloud(
    mix: CloudMix | str,
    policy,
    inst_budget: int,
    seed: int = 0,
    phase: str = "eval",
    config: SystemConfig | None = None,
    me_values: tuple[float, ...] | None = None,
    warmup_insts: int = DEFAULT_WARMUP,
    lookahead: int = 256,
    max_events: int | None = None,
) -> CloudResult:
    """Run a cloud mix under ``policy`` on the datacenter-class machine.

    ``config`` is the *base* (desktop) configuration; the run derives the
    cloud machine via :func:`repro.workloads.cloud.cloud_system_config`.
    ``me_values`` are the memory-efficiency ranks of the *batch* cores
    only (batch-core order); service cores use their profiles' pinned
    ``me_value``.  Every request span is captured (span_sample=1) and
    every violating request is decomposed into the seven stall
    components with the exact-sum invariant enforced.
    """
    if isinstance(mix, str):
        mix = cloud_mix_by_name(mix)
    mix.validate()
    base = config or SystemConfig()
    cfg = cloud_system_config(base, mix.num_cores)
    if isinstance(policy, str):
        name = policy.upper()
        if name in ("ME", "ME-LREQ"):
            if me_values is None:
                raise ValueError(f"policy {name} requires me_values (batch cores)")
            policy = make_policy(name, me_values=_full_me_vector(mix, me_values))
        else:
            policy = make_policy(name)
    traces = []
    for i, c in enumerate(mix.codes):
        if c.isupper():
            traces.append(
                make_cloud_trace(
                    service_by_code(c), seed, phase,
                    core_id=i, issue_width=cfg.core.issue_width,
                )
            )
        else:
            traces.append(make_trace(mix.app_at(i), seed, phase, core_id=i))
    telemetry = Telemetry(sample_every=1 << 30, capture_spans=True, span_sample=1)
    system = MultiCoreSystem(
        cfg,
        policy,
        traces,
        inst_budget,
        warmup_insts=warmup_insts,
        seed=seed,
        lookahead=lookahead,
        telemetry=telemetry,
    )
    telemetry.meta.setdefault("run", {}).update(
        mix=mix.name, policy=policy.name, seed=seed, budget=inst_budget,
        config_hash=cfg.digest(),
    )
    system.run(max_events=max_events)

    collector = telemetry.spans
    t_cl = collector.timing.t_cl
    overhead = collector.overhead
    end = max((s.done for s in collector.completed), default=None)
    windows = drain_windows(telemetry, end_cycle=end)
    # canonical span order: sorted, not completion order, so aggregation
    # is invariant to engine-internal event sequencing
    by_core: dict[int, list] = {i: [] for i in mix.service_cores()}
    for span in collector.completed:
        if span.kind == "read" and span.core_id in by_core:
            by_core[span.core_id].append(span)
    services: list[ServiceStats] = []
    for core_id in mix.service_cores():
        profile = service_by_code(mix.codes[core_id])
        spans = sorted(
            by_core[core_id], key=lambda s: (s.first_attempt, s.arrival, s.done)
        )
        lats: list[int] = []
        viol_count = 0
        viol_sum = 0
        viol_parts = [0] * len(COMPONENTS)
        for span in spans:
            lat = span.latency
            lats.append(lat)
            if lat > profile.slo:
                # decompose raises unless the parts sum exactly to lat
                parts = decompose(
                    span, t_cl, overhead, windows.get(span.track, ())
                )
                viol_count += 1
                viol_sum += lat
                for j, comp in enumerate(COMPONENTS):
                    viol_parts[j] += parts[comp]
        services.append(
            ServiceStats(
                code=profile.code,
                name=profile.name,
                core_id=core_id,
                slo=profile.slo,
                latencies=tuple(sorted(lats)),
                viol_count=viol_count,
                viol_latency_sum=viol_sum,
                viol_components=tuple(viol_parts),
            )
        )
    batch = tuple(
        _core_result(system, i, mix.app_at(i)) for i in mix.batch_cores()
    )
    return CloudResult(
        mix_name=mix.name,
        policy_name=policy.name,
        services=tuple(services),
        batch=batch,
        end_cycle=system.end_cycle,
        row_hit_rate=system.dram.row_hit_rate(),
    )


def _full_me_vector(mix: CloudMix, batch_me: tuple[float, ...]) -> tuple[float, ...]:
    """Interleave pinned service ME ranks with the measured batch ranks
    into the full per-core vector the ME-family policies expect."""
    if len(batch_me) != len(mix.batch_cores()):
        raise ValueError(
            f"{mix.name} has {len(mix.batch_cores())} batch cores, "
            f"got {len(batch_me)} me_values"
        )
    it = iter(batch_me)
    out: list[float] = []
    for c in mix.codes:
        out.append(service_by_code(c).me_value if c.isupper() else next(it))
    return tuple(out)


# -- the tail-latency / SLO table --------------------------------------------------


@dataclass(frozen=True)
class CloudRow:
    """One (mix, policy) row of the cloud table, aggregated over seeds."""

    mix: str
    policy: str
    requests: int
    p50: int
    p99: int
    p999: int
    violations: int
    viol_pct: float
    top_stall: str  # dominant component of violation-attributed cycles
    batch_speedup: float  # weighted speedup of the batch cores (0 if none)
    fingerprint: str


def cloud_cells(
    mix_names: Sequence[str], policies: Sequence[str] | None = None
) -> list[tuple[str, str]]:
    """Enumerate the (mix name, concrete policy) pairs of a cloud table."""
    from repro.experiments.arena import arena_policies, concrete_policy

    pols = tuple(policies) if policies else arena_policies()
    out: list[tuple[str, str]] = []
    for mix in cloud_mixes_for(mix_names):
        for label in pols:
            out.append((mix.name, concrete_policy(label, mix)))
    return out


def run_cloud_table(
    ctx: "ExperimentContext",
    mixes: Sequence[str] = ("smoke",),
    policies: Sequence[str] | None = None,
) -> list[CloudRow]:
    """Race policies over cloud mixes; aggregate exact tails over seeds.

    Within each mix, rows rank by ascending p99 (the datacenter figure
    of merit), ties broken by policy name — a deterministic total order.
    """
    from repro.experiments.arena import arena_policies, concrete_policy

    pols = tuple(policies) if policies else arena_policies()
    resolved = cloud_mixes_for(mixes)
    rows: list[CloudRow] = []
    for mix in resolved:
        mix_rows: list[CloudRow] = []
        for label in pols:
            name = concrete_policy(label, mix)
            lats: list[int] = []
            violations = 0
            comp_totals = [0] * len(COMPONENTS)
            speedups: list[float] = []
            h = hashlib.sha256()
            for seed in ctx.seeds:
                res = ctx.cloud_run(mix, name, seed)
                h.update(f"{mix.name}:{name}:{seed}".encode())
                for svc in res.services:
                    lats.extend(svc.latencies)
                    violations += svc.viol_count
                    for j, v in enumerate(svc.viol_components):
                        comp_totals[j] += v
                    h.update(
                        f"|{svc.code}:{svc.requests}:{svc.viol_count}:"
                        f"{svc.viol_latency_sum}".encode()
                    )
                    for lat in svc.latencies:
                        h.update(f",{lat}".encode())
                for core in res.batch:
                    h.update(f"|b{core.core_id}:{core.ipc.hex()}".encode())
                if res.batch:
                    singles = ctx.batch_single_ipcs(mix.batch_apps(), seed)
                    speedups.append(
                        smt_speedup(tuple(c.ipc for c in res.batch), singles)
                    )
            tails = tail_stats(lats)
            if violations:
                top = max(
                    range(len(COMPONENTS)), key=lambda j: (comp_totals[j], -j)
                )
                top_stall = COMPONENTS[top]
            else:
                top_stall = "-"
            mix_rows.append(
                CloudRow(
                    mix=mix.name,
                    policy=name,
                    requests=tails.count,
                    p50=tails.p50,
                    p99=tails.p99,
                    p999=tails.p999,
                    violations=violations,
                    viol_pct=100.0 * violations / tails.count,
                    top_stall=top_stall,
                    batch_speedup=(
                        sum(speedups) / len(speedups) if speedups else 0.0
                    ),
                    fingerprint=h.hexdigest()[:12],
                )
            )
        mix_rows.sort(key=lambda r: (r.p99, r.policy))
        rows.extend(mix_rows)
    return rows


def format_cloud(rows: Sequence[CloudRow]) -> str:
    """Byte-stable fixed-width rendering of the cloud table."""
    lines = [
        "cloud tail-latency / SLO table (latencies in cycles; rank = p99)",
        "",
        f"{'#':>2}  {'mix':<8} {'policy':<10} {'reqs':>6} {'p50':>6} "
        f"{'p99':>6} {'p999':>6} {'viol':>6} {'viol%':>6} "
        f"{'top-stall':<9} {'bspeed':>7}  {'fingerprint':<12}",
    ]
    rank = 0
    last_mix: str | None = None
    for row in rows:
        if row.mix != last_mix:
            if last_mix is not None:
                lines.append("")
            last_mix = row.mix
            rank = 0
        rank += 1
        lines.append(
            f"{rank:>2}  {row.mix:<8} {row.policy:<10} {row.requests:>6} "
            f"{row.p50:>6} {row.p99:>6} {row.p999:>6} {row.violations:>6} "
            f"{row.viol_pct:>6.1f} {row.top_stall:<9} "
            f"{row.batch_speedup:>7.3f}  {row.fingerprint:<12}"
        )
    return "\n".join(line.rstrip() for line in lines)
