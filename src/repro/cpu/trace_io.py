"""Trace persistence: record, save and load instruction traces.

Trace-driven simulators live on trace files; this module provides a
compact binary format so expensive synthetic (or externally converted)
traces can be generated once and replayed many times:

* header: magic ``REPROTR1``, little-endian ``uint64`` op count;
* body: per op, three little-endian ``uint64`` words — gap, address,
  flags (bit 0 = store) — and nothing after the last op.

NumPy handles the (de)serialisation in bulk, so loading a million-op trace
costs milliseconds, per the HPC guidance of batch I/O over per-record
loops.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO

import numpy as np

from repro.cpu.trace import ListTrace, MemOp, TraceSource

__all__ = ["save_trace", "load_trace", "record_trace"]

_MAGIC = b"REPROTR1"

#: bytes of one op in the body: three uint64 words
_OP_BYTES = 3 * 8


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
    """Load a REPROTR1 trace file into a replayable :class:`ListTrace`.

    The header's op count must match the file's size, and every gap and
    address must fit int64 (a word at or past 2**63 reads as negative,
    which the trace refuses): anything else raises ``ValueError``."""
    with open(path, "rb") as f:
        if _read_exactly(f, len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a REPROTR1 trace file")
        count = int(np.frombuffer(_read_exactly(f, 8), dtype="<u8")[0])
        size = count * _OP_BYTES
        body = os.fstat(f.fileno()).st_size - f.tell()
        if size != body:
            raise ValueError(
                f"{path}: {'truncated' if size > body else 'overlong'} trace "
                f"file: {count} ops need {size} bytes, the body holds {body}")
        body = _read_exactly(f, size)
    gaps, addrs, flags = np.frombuffer(body, dtype="<i8").reshape(count, 3).T
    return ListTrace.from_columns(gaps.astype(np.int64),
                                  addrs.astype(np.int64), flags != 0)


def record_trace(source: TraceSource, num_ops: int,
                 start: int = 0) -> list[MemOp]:
    """Operations ``start`` .. ``start + num_ops - 1`` of ``source`` (fewer
    if it ends first), read through the streams it serves."""
    if num_ops < 0:
        raise ValueError("num_ops must be >= 0")
    ops: list[MemOp] = []
    while len(ops) < num_ops:
        pos = start + len(ops)
        stream = source.stream(pos)
        cols = None if stream is None else stream.columns(pos)
        if cols is None:
            break
        gaps, addrs, writes, base = cols
        i = pos - base
        end = min(len(gaps), i + num_ops - len(ops))
        ops += map(MemOp, gaps[i:end], addrs[i:end], map(bool, writes[i:end]))
    return ops
