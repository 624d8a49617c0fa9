"""Workload substrate: synthetic SPEC CPU2000-like applications and the
paper's workload mixes.

We do not have SPEC CPU2000 binaries or SimPoint traces (DESIGN.md §2), so
each of the 26 benchmarks in the paper's Table 2 is modelled as a
parameterised stochastic reference stream
(:class:`~repro.workloads.synthetic.SyntheticApp`) whose knobs — L2 misses
per kilo-instruction, spatial/row locality, miss burstiness (memory-level
parallelism), store fraction — are set per application
(:mod:`repro.workloads.spec2000`) so that the profiled class (MEM vs ILP)
and memory-efficiency rank order match the paper's Table 2.

:mod:`repro.workloads.mixes` transcribes Table 3's multiprogrammed mixes
verbatim.
"""

from repro.workloads.builder import custom_mix
from repro.workloads.cloud import (
    CLOUD_MIXES,
    SERVICES,
    CloudMix,
    CloudStream,
    ServiceProfile,
    cloud_mix_by_name,
    cloud_system_config,
    is_cloud_codes,
    make_cloud_trace,
    service_by_code,
)
from repro.workloads.mixes import WORKLOAD_MIXES, Mix, mixes_for, workload_by_name
from repro.workloads.spec2000 import APPS, AppProfile, app_by_code, app_by_name
from repro.workloads.synthetic import SyntheticApp, make_trace

__all__ = [
    "APPS",
    "AppProfile",
    "CLOUD_MIXES",
    "CloudMix",
    "CloudStream",
    "Mix",
    "SERVICES",
    "ServiceProfile",
    "SyntheticApp",
    "WORKLOAD_MIXES",
    "app_by_code",
    "app_by_name",
    "cloud_mix_by_name",
    "cloud_system_config",
    "custom_mix",
    "is_cloud_codes",
    "make_cloud_trace",
    "make_trace",
    "mixes_for",
    "service_by_code",
    "workload_by_name",
]
