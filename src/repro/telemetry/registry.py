"""Instrument registry: named counters and histograms.

The fleet's metric store: :class:`~repro.telemetry.fleet.FleetMetrics`
requests its instruments once, at construction time, and updates them
as coordinator events arrive::

    granted = registry.counter("fleet.lease.granted")
    ...
    granted.inc()

:meth:`TelemetryRegistry.snapshot` is what the coordinator's status
reply, metrics JSONL, Prometheus textfile and fleet-trace footer carry.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Histogram",
    "TelemetryRegistry",
]


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming summary of a sample: count / sum / min / max.

    Full distributions are deliberately not kept — only the summary is
    exported.  Callers that need quantiles should export the raw series
    through the event bus instead.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class TelemetryRegistry:
    """Name -> instrument mapping.

    Requesting the same name twice returns the same instrument, so
    independent components may share a counter by agreeing on its name.
    A name is bound to one instrument kind for the registry's lifetime.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Histogram] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif type(inst) is not cls:
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict[str, dict]:
        """All instruments as plain data (for exporters / reports)."""
        out: dict[str, dict] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                out[name] = {"kind": "counter", "value": inst.value}
            else:
                out[name] = {
                    "kind": "histogram",
                    "count": inst.count,
                    "sum": inst.total,
                    "min": inst.min if inst.count else 0.0,
                    "max": inst.max if inst.count else 0.0,
                    "mean": inst.mean,
                }
        return out
