"""Wire protocol of the distributed sweep service.

Newline-delimited JSON over TCP: every message is one JSON object on one
``\\n``-terminated line.  The framing is deliberately trivial — it can be
spoken with ``netcat``, inspected with ``jq``, and replayed from a log —
because the hard guarantees live one layer up (content-addressed cell
keys, SHA-256 payload integrity, float-hex exact numbers).

Handshake
---------
Every connection opens with a ``hello`` carrying the peer's role
(``"worker"`` or ``"client"``), protocol version and code fingerprint.
The coordinator replies ``welcome`` (echoing its own fingerprint and the
lease/heartbeat intervals) or ``error`` + close: a fingerprint mismatch
is rejected up front, because results computed by a different revision
of the simulator must never enter the store.

Message types
-------------
===============  =======================  ==================================
``t``            direction                 meaning
===============  =======================  ==================================
``hello``        peer -> coordinator       role, protocol, fingerprint
``welcome``      coordinator -> peer       accepted; lease/heartbeat config
``error``        coordinator -> peer       rejected; human-readable reason
``task``         coordinator -> worker     one cell to execute (+ attempt)
``result``       worker -> coordinator     encoded payload + its SHA-256
``task_failed``  worker -> coordinator     execution raised; error text
``heartbeat``    worker -> coordinator     extend every lease of the worker
``submit``       client -> coordinator     a list of encoded cells
``accepted``     coordinator -> client     job id, total, warm-store hits
``cell_done``    coordinator -> client     one finished cell (payload+sha)
``cell_failed``  coordinator -> client     cell exhausted its retry budget
``job_done``     coordinator -> client     job complete; summary counters
``status``       client -> coordinator     request a status snapshot
``status_reply`` coordinator -> client     workers / tasks / jobs counters
``shutdown``     client -> coordinator     stop the coordinator (trusted net)
``bye``          coordinator -> client     shutdown acknowledged
===============  =======================  ==================================

Correlation fields
------------------
Fleet observability added three *optional* fields; absent fields mean an
older peer, and every consumer tolerates that:

* ``welcome.run_id`` — the coordinator's fleet-run identifier.  Workers
  adopt it for their trace files; clients stamp it on their
  :class:`~repro.experiments.parallel.ParallelReport`.
* ``task.cell_id`` — the cell-key digest of the leased cell (the same
  value ``result.key`` echoes back), which workers tag their cell
  slices with.
* ``status_reply.run_id`` / ``status_reply.fleet`` — the run identifier
  and the live fleet-metrics snapshot (queue depths, instrument values,
  per-worker table) the ``repro submit --watch`` dashboard renders.

Exactness
---------
Cells (``submit.cells``, ``task.cell``) and result payloads
(``result.payload``, ``cell_done.payload``) are written by the result
store's codec, :func:`repro.experiments.cache.encode`: every dataclass
is a dict of its own fields plus its class name under ``"type"``, and
every float, in a result, an ME vector or a policy argument, is tagged
``{"__float__": "<hex>"}`` — so a result that crossed the network is
bit-identical to one computed in process.  Protocol 3 is that encoding
of a ``Cell`` whose policy constructor arguments live only in its key's
``policy_args``; protocol 1 and 2 peers are refused at the handshake.

Security: the protocol has no authentication or transport encryption.
Run it on trusted networks only (see docs/DISTRIBUTED.md).
"""

from __future__ import annotations

import asyncio
import json

from repro.experiments.cache import decode
from repro.experiments.cells import Cell, machine_digest

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "ServiceError",
    "send_msg",
    "read_msg",
    "expect",
    "decode_cell",
    "parse_addr",
]

PROTOCOL_VERSION = 3

#: StreamReader line limit — an 8-core RunResult payload is ~2.5 KB, so
#: this bounds memory per connection while leaving headroom for large
#: submit batches (cells are 1-3 KB each; 64 MB ~ 20k cells per message).
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed or out-of-sequence message."""


class ServiceError(RuntimeError):
    """The coordinator rejected the request (fingerprint mismatch, ...)."""


# -- framing ---------------------------------------------------------------------


async def send_msg(writer: asyncio.StreamWriter, msg: dict) -> None:
    """Write one message (one JSON line) and drain the transport."""
    writer.write(json.dumps(msg, sort_keys=True).encode() + b"\n")
    await writer.drain()


async def read_msg(reader: asyncio.StreamReader) -> dict | None:
    """Read one message; None on a clean EOF.

    Raises :class:`ProtocolError` on garbage (non-JSON or non-object
    lines) — the connection is unusable past that point.
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProtocolError(f"oversized protocol line: {exc}") from exc
    if not line:
        return None
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"expected a JSON object, got {type(msg).__name__}")
    return msg


def expect(msg: dict | None, expected: str) -> dict:
    """Assert the message type; raises with the peer's error text."""
    if msg is None:
        raise ServiceError("connection closed by peer")
    if msg.get("t") == "error":
        raise ServiceError(msg.get("error", "peer reported an error"))
    if msg.get("t") != expected:
        raise ProtocolError(f"expected {expected!r}, got {msg.get('t')!r}")
    return msg


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (the CLI address syntax)."""
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {addr!r}")
    return host or "127.0.0.1", int(port)


# -- cells -----------------------------------------------------------------------


def decode_cell(doc, where: str = "cell") -> Cell:
    """Rebuild a shipped cell; any failure is a :class:`ProtocolError`
    whose text starts with ``where``.

    Three checks: the document decodes, it is a :class:`Cell`, and its
    config derives the key's machine digest, so a tampered cell is
    refused before a worker burns CPU on a result the store would not
    accept under that key.
    """
    try:
        cell = decode(doc)
        if not isinstance(cell, Cell):
            raise TypeError(f"expected a Cell, got {type(cell).__name__}")
        key = cell.key
        expected = machine_digest(key.kind, key.workload, cell.config)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"{where}: {exc}") from exc
    if key.config_digest != expected:
        raise ProtocolError(
            f"{where} {key.key_str()}: decoded config digest {expected} "
            f"does not match the key"
        )
    return cell
