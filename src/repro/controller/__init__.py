"""Memory-controller substrate.

Implements the paper's controller organisation (Section 3.2 / Figure 1): a
shared request buffer split into a read queue and a write queue, per-core
outstanding-request counters, read-bypass-write with a write-drain
hysteresis (drain above half the buffer, stop below a quarter), and a
per-logic-channel scheduling point that consults a pluggable
:class:`~repro.core.policy.SchedulingPolicy`.

``MemoryController`` and ``MemoryRequest`` bind the model kernel's types,
so they are imported on first access: importing this package loads no
kernel.
"""

from repro.controller.queues import RequestQueues

__all__ = ["MemoryController", "MemoryRequest", "RequestQueues"]


def __getattr__(name: str):
    if name == "MemoryController":
        from repro.controller.controller import MemoryController

        return MemoryController
    if name == "MemoryRequest":
        from repro.controller.request import MemoryRequest

        return MemoryRequest
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
