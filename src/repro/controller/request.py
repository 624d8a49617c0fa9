"""Memory request record.

One :class:`MemoryRequest` represents a full cache-line read or write moving
between the last-level cache and DRAM.  Requests are created by the cache
hierarchy (L2 misses and dirty writebacks) and consumed by the memory
controller; completion is reported back through an optional callback.

The type is the model kernel's (``cpu/_core.c``), so the hierarchy, the
controller and the scheduling point read its fields without a Python
attribute lookup.  ``MemoryRequest(addr, core_id, is_write,
arrival_cycle, on_complete=None)`` builds one; a request is equal only to
itself.  Attributes:

``addr``
    Line-aligned physical byte address.
``coord``
    Decoded DRAM coordinate (channel/bank/row/col), ``None`` before
    enqueue.  The controller decodes the address at enqueue and keeps
    the four fields; the :class:`~repro.dram.address.DramCoord` is built
    at the first read of ``coord`` and kept.  Assigning it mirrors
    ``bank`` and ``row`` into plain fields: the scheduler's candidate
    scans read those two for every queued request at every scheduling
    point.
``core_id``
    Originating core — the identity every core-aware policy keys on.
``is_write``
    ``True`` for writebacks, ``False`` for line-fill reads.
``arrival_cycle``
    Cycle the request entered the controller buffer.
``seq``
    Controller-assigned monotone sequence number; the age tie-breaker
    that realises FCFS order.
``on_complete``
    Callback ``fn(request, done_cycle)`` invoked when read data is
    returned to the core side (reads only; writes complete silently).
``issue_cycle``, ``done_cycle``, ``row_hit``
    Filled by the controller when the transaction is committed (-1 and
    ``False`` before); ``latency`` is ``done_cycle - arrival_cycle``.
``span``
    Lifecycle span when the request was sampled for tracing
    (:mod:`repro.telemetry.spans`), else ``None``.
"""

from __future__ import annotations

from repro.cpu.kernel import kernel

__all__ = ["MemoryRequest"]

MemoryRequest = kernel.MemoryRequest
