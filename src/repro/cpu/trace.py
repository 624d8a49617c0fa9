"""Program traces: memory references separated by instruction gaps.

A trace reduces a program to the stream the memory system sees, the way
trace-driven simulators have always done: each :class:`MemOp` is one memory
instruction, preceded by ``gap`` ordinary (non-memory) instructions that
the core retires at full issue rate.  Every :class:`TraceSource` serves its
ops as typed columns, a window at a time, through one ``columns(pos)``
call; a synthetic source also serves the kernel stream that holds them
(``stream(pos)``), which the core reads and draws on in place.  Traces are
pulled lazily — the synthetic workload generators in :mod:`repro.workloads`
are infinite, and the core model consumes exactly as much as its
instruction budget needs.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Protocol, runtime_checkable

__all__ = ["Columns", "MemOp", "TraceSource", "ListTrace"]


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


#: what :meth:`TraceSource.columns` serves: gaps and addresses (int64:
#: ``array('q')`` or a memoryview of format ``q``), store flags (bytes:
#: ``array('B')`` or a memoryview of format ``B``), and the op index of
#: their first entry
Columns = tuple[array | memoryview, array | memoryview, array | memoryview,
                int]


@runtime_checkable
class TraceSource(Protocol):
    """Anything that serves memory operations in program order.

    A source whose ops a kernel ``TraceStream`` draws and holds (the
    synthetic ones, :mod:`repro.workloads.synthetic`) also has
    ``stream(pos)``: the stream that holds op ``pos``.  The core then
    reads that stream in place and draws its next chunks itself, and
    asks again only where the stream ends; it calls ``columns`` only for
    a source without ``stream``.
    """

    def columns(self, pos: int) -> Optional[Columns]:
        """The typed columns that hold op ``pos`` (at index ``pos - base``)
        and their ``base``, or ``None`` once the trace ended before
        ``pos``.  The core asks for ``columns(0)`` first, then for the op
        just past the end of the columns it holds, and holds their buffer
        exports until it asks again."""
        ...


class ListTrace:
    """A finite, in-memory trace (mainly for tests and examples)."""

    __slots__ = ("_cols",)

    def __init__(self, ops: Iterable[MemOp]) -> None:
        ops = list(ops)
        self._cols = (array("q", [op.gap for op in ops]),
                      array("q", [op.addr for op in ops]),
                      array("B", [bool(op.is_write) for op in ops]), 0)

    @classmethod
    def from_columns(cls, gaps: array, addrs: array, writes: array) -> "ListTrace":
        """The trace over ready columns of equal length (gaps and
        addresses ``array('q')``, store flags ``array('B')``)."""
        trace = cls(())
        trace._cols = (gaps, addrs, writes, 0)
        return trace

    def columns(self, pos: int) -> Optional[Columns]:
        """The whole trace, or ``None`` past its end."""
        return self._cols if pos < len(self._cols[0]) else None

    def __len__(self) -> int:
        return len(self._cols[0])

    @property
    def total_instructions(self) -> int:
        """Instructions the full trace represents (gaps + memory ops)."""
        return sum(self._cols[0]) + len(self)
