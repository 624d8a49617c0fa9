"""Processor-core substrate.

:class:`~repro.cpu.trace.MemOp` / trace sources describe a program as a
stream of memory references separated by gaps of non-memory instructions;
:class:`~repro.cpu.core_model.TraceCore` executes such a stream on an
interval-style out-of-order core model (issue width, ROB window, blocking
commit at the ROB head, MSHR-limited memory-level parallelism) — the
substitution for the paper's M5 cores documented in DESIGN.md §2.

The core model's hot paths are a C extension type built at first use, so
``TraceCore`` and ``CoreStats`` are imported on first access: importing
this package loads no kernel.
"""

from repro.cpu.trace import ListTrace, MemOp, TraceSource

__all__ = ["CoreStats", "ListTrace", "MemOp", "TraceCore", "TraceSource"]


def __getattr__(name: str):
    if name in ("CoreStats", "TraceCore"):
        from repro.cpu import core_model

        return getattr(core_model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
