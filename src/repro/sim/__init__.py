"""Simulation driver: discrete-event engine, system assembly, run helpers.

:class:`~repro.sim.engine.EventEngine` is the event queue in the CPU clock
domain (a heap plus O(1) lanes for the controller's decision points and
read completions); :class:`~repro.sim.system.MultiCoreSystem` assembles
cores, caches, controller and DRAM from a :class:`~repro.config.SystemConfig`
and a workload; :mod:`repro.sim.runner` provides the two run shapes the
paper's methodology needs — single-core profiling runs and multi-core
evaluation runs that stop when the last core commits its instruction budget
(other cores keep generating traffic, statistics frozen at their own budget
crossing, exactly as in Section 4.1).
"""

from repro.sim.engine import EventEngine
from repro.sim.runner import CoreResult, RunResult, run_multicore, run_single_core
from repro.sim.system import MultiCoreSystem

__all__ = [
    "CoreResult",
    "EventEngine",
    "MultiCoreSystem",
    "RunResult",
    "run_multicore",
    "run_single_core",
]
