"""Program traces: memory references separated by instruction gaps.

A trace reduces a program to the stream the memory system sees, the way
trace-driven simulators have always done: each :class:`MemOp` is one memory
instruction, preceded by ``gap`` ordinary (non-memory) instructions that
the core retires at full issue rate.  Every :class:`TraceSource` serves its
ops through one ``stream(pos)`` call: the model kernel's ``TraceStream``
that holds op ``pos``, which the core reads in place (and, for a synthetic
source, draws on itself).  Traces are pulled lazily — the synthetic
workload generators in :mod:`repro.workloads` are infinite, and the core
model consumes exactly as much as its instruction budget needs.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Protocol, runtime_checkable

__all__ = ["MemOp", "TraceSource", "ListTrace"]


class MemOp:
    """One memory instruction in program order.

    Attributes
    ----------
    gap:
        Number of non-memory instructions preceding this one (>= 0).
    addr:
        Byte address referenced.
    is_write:
        Store (``True``) or load (``False``).
    """

    __slots__ = ("gap", "addr", "is_write")

    def __init__(self, gap: int, addr: int, is_write: bool = False) -> None:
        if gap < 0:
            raise ValueError(f"negative gap {gap}")
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        self.gap = gap
        self.addr = addr
        self.is_write = is_write

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "st" if self.is_write else "ld"
        return f"MemOp(gap={self.gap}, {kind} {self.addr:#x})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemOp):
            return NotImplemented
        return (
            self.gap == other.gap
            and self.addr == other.addr
            and self.is_write == other.is_write
        )

    def __hash__(self) -> int:
        return hash((self.gap, self.addr, self.is_write))


@runtime_checkable
class TraceSource(Protocol):
    """Anything that serves memory operations in program order."""

    def stream(self, pos: int):
        """The kernel ``TraceStream`` that holds op ``pos`` or draws on to
        it, or ``None`` once the trace ended before ``pos``.  The core asks
        for ``stream(0)`` first, reads the stream in place and draws on it
        where it can, and asks again for the op just past the ops it
        holds.  ``stream(pos).columns(pos)`` reads the ops from Python:
        gaps and addresses (int64) and store flags (bytes) as memoryviews,
        and the op index of their first entry."""
        ...


class ListTrace:
    """A finite, in-memory trace (mainly for tests and examples), held as
    one kernel stream over a copy of its ops."""

    __slots__ = ("_stream", "_len")

    def __init__(self, ops: Iterable[MemOp]) -> None:
        ops = list(ops)
        self._hold(array("q", [op.gap for op in ops]),
                   array("q", [op.addr for op in ops]),
                   bytes(bool(op.is_write) for op in ops))

    @classmethod
    def from_columns(cls, gaps, addrs, writes) -> "ListTrace":
        """The trace over ready columns of one length (gaps and addresses
        of int64 items, store flags of bytes), which it copies."""
        trace = cls.__new__(cls)
        trace._hold(gaps, addrs, writes)
        return trace

    def _hold(self, gaps, addrs, writes) -> None:
        from repro.cpu.kernel import kernel

        self._stream = kernel.TraceStream.over(gaps, addrs, writes)
        self._len = len(writes)

    def stream(self, pos: int):
        """The whole trace, or ``None`` past its end."""
        return self._stream if pos < self._len else None

    def __len__(self) -> int:
        return self._len

    @property
    def total_instructions(self) -> int:
        """Instructions the full trace represents (gaps + memory ops)."""
        return sum(self._stream.columns(0)[0]) + self._len if self._len else 0
