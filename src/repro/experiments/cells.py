"""Simulation cells: the unit of work the parallel runner schedules.

Every number in the paper reproduction is a deterministic function of a
small tuple of inputs — the workload, the policy (plus its constructor
arguments), the seed, the instruction budgets, the warmup, the core
lookahead and the machine configuration.  A :class:`Cell` captures that
tuple explicitly so one simulation can be

* executed standalone in a worker process (:func:`execute_cell`),
* cached on disk under a stable key (:class:`CellKey`), and
* merged back into an :class:`~repro.experiments.harness.ExperimentContext`,
  whose own memo misses go through the same :func:`execute_cell`.

The ``*_cell`` builders below (:func:`profile_cell`, :func:`eval_cell`,
...) turn a context's budgets and configuration into a cell; the
parallel planner and the context both use them, so a planned cell and
the cell the context would compute always share one key.

Cell kinds mirror the run shapes the experiment harnesses use:

``profile``
    one application alone, ``"profile"`` trace phase, at the profiling
    budget — produces the :class:`~repro.metrics.memory_efficiency.MeProfile`
    feeding ME / ME-LREQ and Table 2;
``single``
    one application alone, ``"eval"`` trace phase — the SMT-speedup
    denominator (:meth:`MeProfiler.single_core_ipc`);
``eval``
    one Table 3 mix under one registered policy, with optional
    constructor arguments, machine and core lookahead (an ablation
    varies one of them) — the body of :meth:`ExperimentContext.run`.
    A policy that reads ME runs only on the context's own machine, the
    one its profiles were collected on;
``cloud``
    one cloud mix (open-loop services + batch cores) on the
    datacenter-class machine — the body of
    :meth:`ExperimentContext.cloud_run`.  The key's ``config_digest``
    names the *derived* cloud machine, so cloud cells never collide
    with eval cells run from the same base configuration.

Fault injection (tests only): set ``REPRO_PARALLEL_FAULT`` to a substring
of a cell key and the executor raises before simulating on the first
attempt; add ``REPRO_PARALLEL_FAULT_ALWAYS=1`` to fail retries too, or
``REPRO_PARALLEL_FAULT_KIND=exit`` to hard-kill the worker process
instead of raising (exercises the broken-pool fallback).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

from repro.config import SystemConfig
from repro.core.registry import make_policy, reads_me
from repro.experiments.cache import encode

__all__ = [
    "CellKey",
    "Cell",
    "CellFault",
    "machine_digest",
    "eval_cell_key",
    "profile_cell_key",
    "single_cell_key",
    "cloud_cell_key",
    "profile_cell",
    "single_cell",
    "eval_cell",
    "cloud_cell",
    "execute_cell",
]


@dataclass(frozen=True)
class CellKey:
    """Canonical identity of one simulation cell.

    Every field that can change the simulated statistics is part of the
    key; nothing else is.  ``profile_budget`` is 0 for cells whose result
    does not depend on profiling (policies that do not read ME;
    profile/single cells carry their budget in ``inst_budget``), so
    changing the profiling budget invalidates exactly the ME-dependent
    entries.
    """

    kind: str  # "profile" | "single" | "eval" | "cloud"
    workload: str  # mix name, or the app code for profile/single cells
    policy: str  # canonical policy name ("" for profile/single cells)
    seed: int
    inst_budget: int
    warmup: int
    config_digest: str
    phase: str = "eval"  # trace phase for profile/single cells
    lookahead: int = 0  # 0 = not applicable (single-core cells)
    profile_budget: int = 0  # 0 = result independent of profiling
    policy_args: tuple = ()  # sorted (name, value) constructor args

    def key_str(self) -> str:
        """Human-readable stable identity (sort key, fault matching)."""
        args = ",".join(f"{k}={v}" for k, v in self.policy_args)
        pol = self.policy + (f"[{args}]" if args else "")
        return (
            f"{self.kind}:{self.workload}:{pol}:seed={self.seed}"
            f":b={self.inst_budget}:w={self.warmup}:la={self.lookahead}"
            f":pb={self.profile_budget}:ph={self.phase}"
            f":cfg={self.config_digest}"
        )

    def digest(self) -> str:
        """Stable hash of this key's exact encoding: it names the cell's
        on-disk cache entry and its task on the sweep service."""
        blob = json.dumps(encode(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:32]


def machine_digest(kind: str, workload: str, config: SystemConfig) -> str:
    """The ``config_digest`` of a ``kind`` cell of ``workload`` run from
    the base machine ``config``: its single-core machine (profile,
    single), its derived datacenter machine (cloud) or itself.  The key
    builders and the service's cell decoder both call it."""
    if kind in ("profile", "single"):
        return config.with_cores(1).digest()
    if kind == "cloud":
        from repro.workloads import cloud

        mix = cloud.cloud_mix_by_name(workload)
        return cloud.cloud_system_config(config, mix.num_cores).digest()
    return config.digest()


def profile_cell_key(code: str, seed: int, profile_budget: int,
                     config: SystemConfig) -> CellKey:
    """ME-profiling run of one application (``"profile"`` phase).

    Mirrors :meth:`MeProfiler.profile`: single-core config, default
    warmup (the profiler never overrides it).
    """
    from repro.sim.runner import DEFAULT_WARMUP

    return CellKey(
        kind="profile", workload=code, policy="", seed=seed,
        inst_budget=profile_budget, warmup=DEFAULT_WARMUP,
        config_digest=machine_digest("profile", code, config), phase="profile",
    )


def single_cell_key(code: str, seed: int, profile_budget: int,
                    config: SystemConfig) -> CellKey:
    """Single-core evaluation run (the SMT-speedup denominator).

    Mirrors :meth:`MeProfiler.single_core_ipc`: runs at the *profiler's*
    budget on the ``"eval"`` phase.
    """
    from repro.sim.runner import DEFAULT_WARMUP

    return CellKey(
        kind="single", workload=code, policy="", seed=seed,
        inst_budget=profile_budget, warmup=DEFAULT_WARMUP,
        config_digest=machine_digest("single", code, config), phase="eval",
    )


def eval_cell_key(mix_name: str, policy: str, seed: int, inst_budget: int,
                  warmup: int, lookahead: int, config: SystemConfig,
                  profile_budget: int, policy_args: tuple = ()) -> CellKey:
    """Multi-core evaluation run (the :meth:`ExperimentContext.run` body);
    ``policy_args`` are the policy's constructor arguments."""
    policy = policy.upper()
    return CellKey(
        kind="eval", workload=mix_name, policy=policy, seed=seed,
        inst_budget=inst_budget, warmup=warmup,
        config_digest=machine_digest("eval", mix_name, config),
        lookahead=lookahead,
        profile_budget=profile_budget if reads_me(policy) else 0,
        policy_args=tuple(sorted(tuple(kv) for kv in policy_args)),
    )


def cloud_cell_key(mix_name: str, policy: str, seed: int, inst_budget: int,
                   warmup: int, lookahead: int, config: SystemConfig,
                   profile_budget: int) -> CellKey:
    """Cloud co-run (the :meth:`ExperimentContext.cloud_run` body).

    ``config`` is the base machine; the digest is taken over the derived
    datacenter-class configuration.  ``profile_budget`` matters only for
    policies that read ME, whose *batch-core* ranks come from profiling
    (service cores carry pinned ranks in their profiles).
    """
    from repro.workloads.cloud import cloud_mix_by_name

    policy = policy.upper()
    mix = cloud_mix_by_name(mix_name)
    return CellKey(
        kind="cloud", workload=mix.name, policy=policy, seed=seed,
        inst_budget=inst_budget, warmup=warmup,
        config_digest=machine_digest("cloud", mix.name, config),
        lookahead=lookahead,
        profile_budget=profile_budget if reads_me(policy) else 0,
    )


@dataclass(frozen=True)
class Cell:
    """One schedulable simulation: identity plus execution payload.

    ``me_values`` is resolved by the scheduler from the profile cells the
    cell depends on (``me_deps``, one per core in mix order) before
    dispatch; a cell executed standalone with ``me_values=None`` and a
    policy that reads ME profiles in-process (bit-identical — the profile
    is itself deterministic).
    """

    key: CellKey
    config: SystemConfig
    me_deps: tuple[CellKey, ...] = ()
    me_values: tuple[float, ...] | None = None

    def with_resolved_me(self, lookup) -> "Cell":
        """This cell ready to execute.

        A cell with ``me_deps`` gets the ME vector of the profile payloads
        ``lookup(dep_key)`` returns for them.  When one of them has no
        payload, or the cell has no ``me_deps``, it is returned unchanged
        (and profiles in-process if its policy reads ME).
        """
        if self.me_values is not None or not self.me_deps:
            return self
        profiles = [lookup(dep) for dep in self.me_deps]
        if any(p is None for p in profiles):
            return self
        return replace(self, me_values=tuple(p.me for p in profiles))


# -- cell builders (shared by the planner and the context) ----------------------


def profile_cell(ctx, code: str, seed: int) -> Cell:
    """ME-profiling cell of one application under ``ctx``'s budgets."""
    return Cell(key=profile_cell_key(code, seed, ctx.profile_budget,
                                     ctx.config),
                config=ctx.config)


def single_cell(ctx, code: str, seed: int) -> Cell:
    """Single-core evaluation cell (the SMT-speedup denominator)."""
    return Cell(key=single_cell_key(code, seed, ctx.profile_budget,
                                    ctx.config),
                config=ctx.config)


def _me_deps(ctx, policy: str, codes, seed: int) -> tuple[CellKey, ...]:
    """Profile cells a run of ``policy`` waits for: one per code when it
    reads ME, none otherwise."""
    if not reads_me(policy):
        return ()
    # ME profiles always come from the context's baseline machine.
    return tuple(
        profile_cell_key(code, seed, ctx.profile_budget, ctx.config)
        for code in codes
    )


def eval_cell(ctx, mix_name: str, policy: str, seed: int, *,
              policy_args: tuple = (), config: SystemConfig | None = None,
              lookahead: int | None = None) -> Cell:
    """One Table 3 mix under one policy; ``config``/``lookahead`` of None
    mean ``ctx``'s."""
    from repro.workloads.mixes import workload_by_name

    mix = workload_by_name(mix_name)
    config = ctx.config if config is None else config
    if reads_me(policy) and config != ctx.config:
        raise ValueError(
            f"{policy} reads ME, which is profiled on the context's "
            f"machine; it cannot run on another machine")
    lookahead = ctx.lookahead if lookahead is None else lookahead
    key = eval_cell_key(mix.name, policy, seed, ctx.inst_budget,
                        ctx.warmup_insts, lookahead, config,
                        ctx.profile_budget, policy_args)
    return Cell(key=key, config=config,
                me_deps=_me_deps(ctx, policy, mix.codes, seed))


def cloud_cell(ctx, mix_name: str, policy: str, seed: int) -> Cell:
    """One cloud mix under one policy on the derived cloud machine."""
    from repro.workloads.cloud import cloud_mix_by_name

    mix = cloud_mix_by_name(mix_name)
    key = cloud_cell_key(mix.name, policy, seed, ctx.inst_budget,
                         ctx.warmup_insts, ctx.lookahead, ctx.config,
                         ctx.profile_budget)
    # Batch cores only: service cores carry pinned ME ranks.
    deps = _me_deps(ctx, policy, [a.code for a in mix.batch_apps()], seed)
    return Cell(key=key, config=ctx.config, me_deps=deps)


class CellFault(RuntimeError):
    """Raised by the test-only fault-injection hook."""


def _maybe_inject_fault(key: CellKey, attempt: int) -> None:
    pattern = os.environ.get("REPRO_PARALLEL_FAULT")
    if not pattern or pattern not in key.key_str():
        return
    always = bool(os.environ.get("REPRO_PARALLEL_FAULT_ALWAYS"))
    if attempt > 0 and not always:
        return
    if os.environ.get("REPRO_PARALLEL_FAULT_KIND") == "exit" and attempt == 0:
        # Hard-kill the worker (no exception crosses the pipe) to
        # exercise the broken-pool fallback.  Retries always raise so an
        # in-parent retry can never take the parent process down.
        os._exit(3)
    raise CellFault(f"injected fault for {key.key_str()} (attempt {attempt})")


def execute_cell(cell: Cell, attempt: int = 0, telemetry=None):
    """Run one cell standalone; returns its payload.

    * ``profile`` -> :class:`MeProfile`
    * ``single``  -> :class:`CoreResult`
    * ``eval``    -> :class:`RunResult`
    * ``cloud``   -> :class:`~repro.experiments.cloud.CloudResult`

    Pure function of the cell (given a resolved ``me_values``): no
    shared state — safe to run in any process.  ``telemetry`` attaches a
    live :class:`~repro.telemetry.hub.Telemetry` hub to an eval run (a capture run: ``repro run --telemetry``, ``arena --anatomy``);
    the statistics are unchanged, but the result carries the hub, so
    capture results are never memoised or cached.
    """
    from repro.metrics.memory_efficiency import MeProfiler
    from repro.sim.runner import run_multicore
    from repro.workloads.mixes import workload_by_name
    from repro.workloads.spec2000 import app_by_code

    key = cell.key
    _maybe_inject_fault(key, attempt)

    if key.kind in ("profile", "single"):
        profiler = MeProfiler(key.inst_budget, seed=key.seed,
                              config=cell.config)
        app = app_by_code(key.workload)
        if key.kind == "profile":
            return profiler.profile(app)
        return profiler.single_core_result(app, key.phase)

    if key.kind == "eval":
        mix = workload_by_name(key.workload)
        me = cell.me_values
        if me is None and reads_me(key.policy):
            # Standalone fallback: profile in-process, exactly as
            # MeProfiler would (deterministic, so still bit-identical);
            # eval_cell runs ME policies only on their profiles' machine.
            profiler = MeProfiler(
                key.profile_budget, seed=key.seed, config=cell.config
            )
            me = profiler.me_values(mix)
        policy = make_policy(key.policy, me_values=me,
                             **dict(key.policy_args))
        return run_multicore(
            mix, policy, inst_budget=key.inst_budget, seed=key.seed,
            warmup_insts=key.warmup, config=cell.config,
            lookahead=key.lookahead, telemetry=telemetry,
        )

    if key.kind == "cloud":
        from repro.experiments.cloud import run_cloud
        from repro.workloads.cloud import cloud_mix_by_name

        mix = cloud_mix_by_name(key.workload)
        me = cell.me_values  # batch-core ME ranks (batch-core order)
        if me is None and reads_me(key.policy):
            profiler = MeProfiler(
                key.profile_budget, seed=key.seed, config=cell.config
            )
            me = tuple(profiler.profile(app).me for app in mix.batch_apps())
        return run_cloud(
            mix, key.policy, inst_budget=key.inst_budget, seed=key.seed,
            warmup_insts=key.warmup, config=cell.config,
            lookahead=key.lookahead, me_values=me,
        )

    raise ValueError(f"unknown cell kind {key.kind!r}")
