"""Evaluation metrics.

* :mod:`repro.metrics.speedup` — the SMT-speedup performance metric
  (Snavely et al., used in paper Section 4.1) and the unfairness metric
  (max/min slowdown, Section 5.3);
* :mod:`repro.metrics.memory_efficiency` — profiling of Eq. 1's
  ``ME = IPC_single / BW_single`` with result caching;
* :mod:`repro.metrics.stats` — a deterministic reservoir sampler for
  percentiles over unbounded streams;
* :mod:`repro.metrics.tails` — exact integer-cycle tail percentiles
  (p50/p99/p999) and SLO-violation counts for the cloud workload family.
"""

from repro.metrics.memory_efficiency import MeProfiler, memory_efficiency
from repro.metrics.speedup import slowdowns, smt_speedup, unfairness
from repro.metrics.tails import (
    PERCENTILES,
    TailStats,
    count_violations,
    nearest_rank,
    percentile,
    tail_stats,
)

__all__ = [
    "MeProfiler",
    "PERCENTILES",
    "TailStats",
    "count_violations",
    "memory_efficiency",
    "nearest_rank",
    "percentile",
    "slowdowns",
    "smt_speedup",
    "tail_stats",
    "unfairness",
]
