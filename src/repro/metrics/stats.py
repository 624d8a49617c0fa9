"""Generic statistics accumulators.

:class:`ReservoirSampler` keeps a fixed-size uniform sample of an
unbounded observation stream (latency percentiles without storing every
request).
"""

from __future__ import annotations

from repro.util.rng import RngStream

__all__ = ["ReservoirSampler"]


class ReservoirSampler:
    """Algorithm-R reservoir sampling with deterministic seeding.

    Keeps a uniform random subset of size ``capacity`` from however many
    observations flow through, so percentile queries over millions of read
    latencies cost O(capacity) memory.

    >>> r = ReservoirSampler(4, seed=1)
    >>> for x in range(100): r.add(float(x))
    >>> len(r.sample) <= 4
    True
    """

    __slots__ = ("capacity", "sample", "seen", "_rng")

    def __init__(self, capacity: int = 2048, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.sample: list[float] = []
        self.seen = 0
        self._rng = RngStream(seed, "reservoir")

    def add(self, x: float) -> None:
        """Fold one observation into the reservoir."""
        self.seen += 1
        if len(self.sample) < self.capacity:
            self.sample.append(x)
            return
        j = self._rng.randint(0, self.seen)
        if j < self.capacity:
            self.sample[j] = x

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0-100) of the stream."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.sample:
            raise ValueError("no observations")
        xs = sorted(self.sample)
        idx = round(p / 100 * (len(xs) - 1))
        return xs[idx]

    def clear(self) -> None:
        self.sample.clear()
        self.seen = 0
