"""Memory-efficiency profiling (the paper's Eq. 1).

``ME[i] = IPC_single[i] / BW_single[i]`` with bandwidth in GB/s, measured
by running each application alone on a single-core machine.  The paper
collects this off-line from a 10 M-instruction SimPoint *different* from
the evaluation SimPoints; :class:`MeProfiler` mirrors that by running the
``"profile"`` trace phase (a distinct RNG stream from ``"eval"``) and
caches results per ``(app, seed, budget)`` so a sweep over 36 workloads
profiles each of the 26 applications once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.sim.runner import CoreResult, run_single_core
from repro.workloads.mixes import Mix
from repro.workloads.spec2000 import AppProfile

__all__ = ["memory_efficiency", "MeProfile", "MeProfiler"]

#: cap reported memory efficiency when an application moves (almost) no
#: data — the paper's eon-like case (its table caps implicitly at 16276)
ME_CAP = 1e5


def memory_efficiency(ipc: float, bw_gbps: float, cap: float = ME_CAP) -> float:
    """Eq. 1, with a cap for (near-)zero-bandwidth applications.

    >>> memory_efficiency(1.0, 0.5)
    2.0
    """
    if ipc < 0 or bw_gbps < 0:
        raise ValueError("ipc and bandwidth must be non-negative")
    if bw_gbps == 0:
        return cap
    return min(ipc / bw_gbps, cap)


@dataclass(frozen=True)
class MeProfile:
    """Profiled single-core behaviour of one application."""

    app: str
    code: str
    ipc: float
    bw_gbps: float
    me: float
    avg_read_latency: float


class MeProfiler:
    """Cached single-core profiler.

    Parameters
    ----------
    inst_budget:
        Instructions per profiling run (the 10 M-instruction SimPoint
        analogue, scaled down — see DESIGN.md §2).
    seed / config:
        Shared by all profiling runs.
    """

    def __init__(
        self,
        inst_budget: int,
        seed: int = 0,
        config: SystemConfig | None = None,
    ) -> None:
        if inst_budget < 1:
            raise ValueError("inst_budget must be >= 1")
        self.inst_budget = inst_budget
        self.seed = seed
        self.config = config or SystemConfig()
        self._cache: dict[str, MeProfile] = {}
        self._single_core_results: dict[str, CoreResult] = {}

    def profile(self, app: AppProfile) -> MeProfile:
        """Profile one application (cached)."""
        hit = self._cache.get(app.code)
        if hit is not None:
            return hit
        res = run_single_core(
            app,
            self.inst_budget,
            seed=self.seed,
            phase="profile",
            config=self.config,
        )
        prof = MeProfile(
            app=app.name,
            code=app.code,
            ipc=res.ipc,
            bw_gbps=res.bw_gbps,
            me=memory_efficiency(res.ipc, res.bw_gbps),
            avg_read_latency=res.avg_read_latency,
        )
        self._cache[app.code] = prof
        return prof

    def me_values(self, mix: Mix) -> tuple[float, ...]:
        """Per-core ME vector for a workload mix (feeds ME / ME-LREQ)."""
        return tuple(self.profile(app).me for app in mix.apps())

    def single_core_ipc(self, app: AppProfile, phase: str = "eval") -> float:
        """Single-core IPC on the *evaluation* slice (SMT-speedup baseline).

        The paper's speedup denominator comes from the same SimPoints the
        multiprogrammed runs use, hence the separate phase and cache.
        """
        key = f"{app.code}:{phase}"
        res = self._single_core_results.get(key)
        if res is None:
            res = run_single_core(
                app,
                self.inst_budget,
                seed=self.seed,
                phase=phase,
                config=self.config,
            )
            self._single_core_results[key] = res
        return res.ipc

    def single_core_result(self, app: AppProfile,
                           phase: str = "eval") -> CoreResult:
        """Full :class:`CoreResult` of the single-core evaluation run
        (computes and caches it on first use)."""
        self.single_core_ipc(app, phase)
        return self._single_core_results[f"{app.code}:{phase}"]

    def single_ipcs(self, mix: Mix, phase: str = "eval") -> tuple[float, ...]:
        """Per-core single-core IPC vector for a mix."""
        return tuple(self.single_core_ipc(app, phase) for app in mix.apps())
