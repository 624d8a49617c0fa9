"""Exact integer-cycle tail-latency statistics.

Datacenter workloads are judged by their tails, not their means: a p99
or p999 read latency is the number an SLO is written against ("Memory
Controller Design Under Cloud Workloads", arXiv:1611.10316).  This
module computes those tails *exactly* — nearest-rank percentiles over
integer cycle counts, no interpolation, no floats — so the numbers are
bit-identical across process counts and platforms, and can be
pinned by golden fingerprints like every other statistic in this repo.

Nearest-rank definition (the classic one): the ``q``-th percentile of
``n`` sorted samples is the value at 1-based rank ``ceil(n * q)``,
clamped to at least 1.  Consequences worth knowing:

* p999 of a stream with n <= 1000 samples is simply the maximum;
* a single-request stream has p50 = p99 = p999 = its only latency;
* ties are handled naturally — the rank indexes the sorted multiset.

SLO accounting is strict-greater: a request *violates* its deadline when
``latency > slo`` (finishing exactly on the deadline meets it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "PERCENTILES",
    "TailStats",
    "count_violations",
    "nearest_rank",
    "percentile",
    "tail_stats",
]

#: the tails the cloud tables report, as exact (numerator, denominator)
#: rational fractions — (50, 100) is the median, (999, 1000) the p999
PERCENTILES: tuple[tuple[int, int], ...] = ((50, 100), (99, 100), (999, 1000))


def nearest_rank(sorted_values: Sequence[int], num: int, den: int) -> int:
    """Nearest-rank percentile ``num/den`` of an ascending-sorted sequence.

    The rank is ``ceil(n * num / den)`` computed in exact integer
    arithmetic (never via floats — ``0.29 * 100`` style rounding bugs are
    the reason this module exists), clamped to at least 1.

    >>> nearest_rank([10, 20, 30, 40], 50, 100)
    20
    >>> nearest_rank([7], 999, 1000)
    7
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0 < num <= den:
        raise ValueError(f"percentile {num}/{den} outside (0, 1]")
    rank = -(-n * num // den)  # exact ceil division
    if rank < 1:
        rank = 1
    return sorted_values[rank - 1]


def percentile(values: Iterable[int], num: int, den: int) -> int:
    """Nearest-rank percentile of an unsorted iterable (sorts a copy)."""
    return nearest_rank(sorted(values), num, den)


def count_violations(latencies: Iterable[int], slo: int) -> int:
    """Requests whose latency exceeded the SLO deadline (strictly)."""
    if slo < 0:
        raise ValueError("slo must be >= 0")
    return sum(1 for x in latencies if x > slo)


@dataclass(frozen=True)
class TailStats:
    """Exact tail summary of one latency population (integer cycles)."""

    count: int
    total: int  # exact sum — means are derived at render time
    p50: int
    p99: int
    p999: int
    worst: int

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def tail_stats(latencies: Iterable[int]) -> TailStats:
    """Summarise a latency population (raises on empty input — a silent
    zero would read as a real sub-cycle tail)."""
    xs = sorted(latencies)
    if not xs:
        raise ValueError("tail_stats of an empty latency population")
    return TailStats(
        count=len(xs),
        total=sum(xs),
        p50=nearest_rank(xs, 50, 100),
        p99=nearest_rank(xs, 99, 100),
        p999=nearest_rank(xs, 999, 1000),
        worst=xs[-1],
    )
