"""Trace persistence: record, save and load instruction traces.

Trace-driven simulators live on trace files; this module provides a
compact binary format so expensive synthetic (or externally converted)
traces can be generated once and replayed many times:

* header: magic ``REPROTR1``, little-endian ``uint64`` op count;
* body: per op, three little-endian ``uint64`` words — gap, address,
  flags (bit 0 = store).

NumPy handles the (de)serialisation in bulk, so loading a million-op trace
costs milliseconds, per the HPC guidance of batch I/O over per-record
loops.
"""

from __future__ import annotations

import io
import os
from array import array
from typing import BinaryIO

import numpy as np

from repro.cpu.trace import ListTrace, MemOp, TraceSource

__all__ = ["save_trace", "load_trace", "record_trace"]

_MAGIC = b"REPROTR1"


def _encode(ops: list[MemOp]) -> bytes:
    arr = np.empty((len(ops), 3), dtype="<u8")
    for i, op in enumerate(ops):
        arr[i, 0] = op.gap
        arr[i, 1] = op.addr
        arr[i, 2] = 1 if op.is_write else 0
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(np.uint64(len(ops)).tobytes())
    buf.write(arr.tobytes())
    return buf.getvalue()


def save_trace(ops: list[MemOp], path: str | os.PathLike) -> None:
    """Serialise ``ops`` to ``path`` in the REPROTR1 format."""
    with open(path, "wb") as f:
        f.write(_encode(ops))


def _read_exactly(f: BinaryIO, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError("truncated trace file")
    return data


def load_trace(path: str | os.PathLike) -> ListTrace:
    """Load a REPROTR1 trace file into a replayable :class:`ListTrace`."""
    with open(path, "rb") as f:
        if _read_exactly(f, len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a REPROTR1 trace file")
        count = int(np.frombuffer(_read_exactly(f, 8), dtype="<u8")[0])
        body = _read_exactly(f, count * 3 * 8)
    gaps, addrs, flags = np.frombuffer(body, dtype="<u8").reshape(count, 3).T
    if count and max(gaps.max(), addrs.max()) >= 1 << 63:
        raise OverflowError(f"{path}: a gap or address exceeds int64")
    return ListTrace.from_columns(array("q", gaps.astype(np.int64).tobytes()),
                                  array("q", addrs.astype(np.int64).tobytes()),
                                  array("B", (flags != 0).tobytes()))


def record_trace(source: TraceSource, num_ops: int,
                 start: int = 0) -> list[MemOp]:
    """Operations ``start`` .. ``start + num_ops - 1`` of ``source`` (fewer
    if it ends first), read through its columns."""
    if num_ops < 0:
        raise ValueError("num_ops must be >= 0")
    ops: list[MemOp] = []
    while len(ops) < num_ops:
        cols = source.columns(start + len(ops))
        if cols is None:
            break
        gaps, addrs, writes, base = cols
        i = start + len(ops) - base
        end = min(len(gaps), i + num_ops - len(ops))
        ops += map(MemOp, gaps[i:end], addrs[i:end], map(bool, writes[i:end]))
    return ops
