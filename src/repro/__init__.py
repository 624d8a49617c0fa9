"""repro — reproduction of *Memory Access Scheduling Schemes for Systems
with Multi-Core Processors* (Zheng, Lin, Zhang, Zhu; ICPP 2008).

The package provides, from scratch, everything the paper's evaluation
needs: a trace-driven multi-core model, a DDR2 memory system, a
policy-driven memory controller, the ME-LREQ scheduling scheme and every
baseline it is compared against, synthetic SPEC CPU2000-like workloads,
and experiment harnesses for each table and figure.

Quick start::

    from repro import run_multicore, workload_by_name, MeProfiler

    mix = workload_by_name("4MEM-1")
    prof = MeProfiler(inst_budget=20_000)
    me = prof.me_values(mix)
    result = run_multicore(mix, "ME-LREQ", inst_budget=30_000, me_values=me)
    print(result.policy_name, [f"{c.ipc:.2f}" for c in result.per_core])

See DESIGN.md for the architecture and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.config import (
    CacheConfig,
    CacheHierarchyConfig,
    ControllerConfig,
    CoreConfig,
    DramTimingConfig,
    DramTopologyConfig,
    SystemConfig,
)
from repro.core import (
    MeLreqPolicy,
    OnlineMeLreqPolicy,
    PriorityTable,
    SchedulingPolicy,
    available_policies,
    make_policy,
)
from repro.metrics import MeProfiler, memory_efficiency, smt_speedup, unfairness
from repro.sim import (
    CoreResult,
    MultiCoreSystem,
    RunResult,
    run_multicore,
    run_single_core,
)
from repro.telemetry import Telemetry
from repro.workloads import (
    APPS,
    WORKLOAD_MIXES,
    app_by_code,
    app_by_name,
    mixes_for,
    workload_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "APPS",
    "CacheConfig",
    "CacheHierarchyConfig",
    "ControllerConfig",
    "CoreConfig",
    "CoreResult",
    "DramTimingConfig",
    "DramTopologyConfig",
    "MeLreqPolicy",
    "MeProfiler",
    "MultiCoreSystem",
    "OnlineMeLreqPolicy",
    "PriorityTable",
    "RunResult",
    "SchedulingPolicy",
    "SystemConfig",
    "WORKLOAD_MIXES",
    "app_by_code",
    "app_by_name",
    "available_policies",
    "make_policy",
    "memory_efficiency",
    "mixes_for",
    "run_multicore",
    "run_single_core",
    "smt_speedup",
    "unfairness",
    "workload_by_name",
]
