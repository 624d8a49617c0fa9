"""Cache-hierarchy substrate: per-core L1 data caches and a shared L2.

Functional (hit/miss + LRU + dirty bits) with latency modelling delegated
to the core model, whose C kernel runs the demand hit paths over these
caches' sets; misses beyond the L2 enter
:meth:`CacheHierarchy._after_l2_miss` and become
:class:`~repro.controller.request.MemoryRequest` line fills, dirty evictions
become writebacks.  MSHRs bound per-core outstanding misses (Table 1:
32 data MSHRs per core, 64 at the L2) and merge same-line misses.
"""

from repro.cache.cache import CacheStats, SetAssocCache
from repro.cache.hierarchy import BLOCKED, MERGED, PENDING, CacheHierarchy
from repro.cache.mshr import MshrFile

__all__ = [
    "BLOCKED",
    "CacheHierarchy",
    "CacheStats",
    "MERGED",
    "MshrFile",
    "PENDING",
    "SetAssocCache",
]
