"""Run helpers: single-core profiling runs and multi-core evaluation runs.

These are the two run shapes the paper's methodology uses:

* :func:`run_single_core` executes one application alone on a one-core
  machine (the denominator of SMT speedup and the source of the
  memory-efficiency profile, Eq. 1);
* :func:`run_multicore` executes a Table 3 mix under a chosen policy and
  reports per-core results plus system-level statistics.

Both return plain dataclasses so experiment harnesses and benchmarks can
format paper-style rows without touching simulator internals, and both
close their machine once its results are read, so it is freed by
reference counting (see :meth:`MultiCoreSystem.close`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.core.policy import SchedulingPolicy
from repro.core.registry import make_policy
from repro.sim.system import MultiCoreSystem
from repro.telemetry.hub import Telemetry
from repro.util.units import gbps
from repro.workloads.mixes import Mix
from repro.workloads.spec2000 import AppProfile
from repro.workloads.synthetic import make_trace

__all__ = ["CoreResult", "RunResult", "run_single_core", "run_multicore"]

@dataclass(frozen=True)
class CoreResult:
    """Outcome for one application instance on one core."""

    app: str
    code: str
    core_id: int
    ipc: float
    finish_cycle: int
    committed: int
    reads: int
    avg_read_latency: float
    bytes_total: int
    bw_gbps: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of one multi-core evaluation run."""

    mix_name: str
    policy_name: str
    per_core: tuple[CoreResult, ...]
    end_cycle: int
    row_hit_rate: float
    drain_entries: int
    extra: dict = field(default_factory=dict)

    @property
    def num_cores(self) -> int:
        return len(self.per_core)

    def ipcs(self) -> tuple[float, ...]:
        return tuple(c.ipc for c in self.per_core)

    def avg_read_latency(self) -> float:
        """Read-count-weighted average latency across cores."""
        reads = sum(c.reads for c in self.per_core)
        if reads == 0:
            return 0.0
        total = sum(c.avg_read_latency * c.reads for c in self.per_core)
        return total / reads


def _core_result(system: MultiCoreSystem, core_id: int, app: AppProfile) -> CoreResult:
    win = system.window(core_id)  # counter deltas over the measured window
    core = system.cores[core_id]
    return CoreResult(
        app=app.name,
        code=app.code,
        core_id=core_id,
        ipc=core.ipc(),
        finish_cycle=core.finish_cycle,
        committed=system.target_insts,
        reads=win.read_count,
        avg_read_latency=win.avg_read_latency,
        bytes_total=win.bytes_total,
        bw_gbps=gbps(win.bytes_total, win.cycle),
    )


#: default warmup: enough instructions to commit the trace generators'
#: initialisation prologue (hot + L2-resident sets) plus pipeline fill
DEFAULT_WARMUP = 10_000


def run_single_core(
    app: AppProfile,
    inst_budget: int,
    seed: int = 0,
    phase: str = "profile",
    config: SystemConfig | None = None,
    policy: SchedulingPolicy | str = "HF-RF",
    warmup_insts: int = DEFAULT_WARMUP,
    max_events: int | None = None,
    telemetry: Telemetry | None = None,
) -> CoreResult:
    """Run ``app`` alone on a single-core machine.

    ``phase`` selects the instruction slice: the paper profiles ME on one
    SimPoint and evaluates on different ones; here different phases derive
    different RNG streams.
    """
    cfg = (config or SystemConfig()).with_cores(1)
    if isinstance(policy, str):
        policy = make_policy(policy)
    trace = make_trace(app, seed, phase, core_id=0)
    system = MultiCoreSystem(
        cfg,
        policy,
        [trace],
        inst_budget,
        warmup_insts=warmup_insts,
        seed=seed,
        telemetry=telemetry,
    )
    if telemetry is not None:
        telemetry.meta.setdefault("run", {}).update(
            app=app.name, policy=policy.name, seed=seed, budget=inst_budget,
            config_hash=cfg.digest(),
        )
    system.run(max_events=max_events)
    result = _core_result(system, 0, app)
    system.close()
    return result


def run_multicore(
    mix: Mix,
    policy: SchedulingPolicy | str,
    inst_budget: int,
    seed: int = 0,
    phase: str = "eval",
    config: SystemConfig | None = None,
    me_values: tuple[float, ...] | None = None,
    warmup_insts: int = DEFAULT_WARMUP,
    lookahead: int = 256,
    max_events: int | None = None,
    telemetry: Telemetry | None = None,
) -> RunResult:
    """Run a Table 3 mix under ``policy``.

    ``policy`` may be a name (a policy that
    :attr:`~repro.core.policy.SchedulingPolicy.reads_me` then requires
    ``me_values``, the per-core memory-efficiency profile; the others
    ignore it) or a ready-built :class:`SchedulingPolicy`.

    ``telemetry`` attaches a telemetry hub to the run; the same hub
    object comes back under ``result.extra['telemetry']``.
    """
    cfg = (config or SystemConfig()).with_cores(mix.num_cores)
    if isinstance(policy, str):
        policy = make_policy(policy, me_values=me_values)
    apps = mix.apps()
    traces = [
        make_trace(app, seed, phase, core_id=i) for i, app in enumerate(apps)
    ]
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
    if telemetry is not None:
        telemetry.meta.setdefault("run", {}).update(
            mix=mix.name, policy=policy.name, seed=seed, budget=inst_budget,
            config_hash=cfg.digest(),
        )
    system.run(max_events=max_events)
    per_core = tuple(
        _core_result(system, i, app) for i, app in enumerate(apps)
    )
    extra = {} if telemetry is None else {"telemetry": telemetry}
    result = RunResult(
        mix_name=mix.name,
        policy_name=policy.name,
        per_core=per_core,
        end_cycle=system.end_cycle,
        row_hit_rate=system.dram.row_hit_rate(),
        drain_entries=system.controller.stats.drain_entries,
        extra=extra,
    )
    system.close()
    return result
