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

Correlation fields (still protocol 1)
-------------------------------------
Fleet observability added three *optional* fields; absent fields mean an
older peer, and every consumer tolerates that, so the protocol version
is unchanged:

* ``welcome.run_id`` — the coordinator's fleet-run identifier.  Workers
  adopt it for their trace files and ``REPRO_RUN_ID``; clients stamp it
  on their :class:`~repro.experiments.parallel.ParallelReport`.
* ``task.cell_id`` — the cell-key digest of the leased cell (the same
  value ``result.key`` echoes back), exported by workers as
  ``REPRO_CELL_ID`` while the cell executes.
* ``status_reply.run_id`` / ``status_reply.fleet`` — the run identifier
  and, when the coordinator runs with telemetry on, the live
  fleet-metrics snapshot (queue depths, instrument values, per-worker
  table) the ``repro submit --watch`` dashboard renders.

Exactness
---------
Simulation payloads travel through the same float-hex codec as the disk
cache (:func:`repro.experiments.cache.encode_payload`), resolved ME
vectors are shipped as ``float.hex()`` strings, and float-valued policy
constructor arguments are tagged (``{"__float__": "<hex>"}``) — a result
that crossed the network is bit-identical to one computed in process.

Security: the protocol has no authentication or transport encryption.
Run it on trusted networks only (see docs/DISTRIBUTED.md).
"""

from __future__ import annotations

import asyncio
import json

from repro.config import (
    CacheConfig,
    CacheHierarchyConfig,
    ControllerConfig,
    CoreConfig,
    DramTimingConfig,
    DramTopologyConfig,
    SystemConfig,
)
from repro.experiments.cells import Cell, CellKey, machine_digest

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "ServiceError",
    "send_msg",
    "read_msg",
    "expect",
    "encode_config",
    "decode_config",
    "encode_key",
    "decode_key",
    "encode_cell",
    "decode_cell",
    "parse_addr",
]

PROTOCOL_VERSION = 1

#: StreamReader line limit — an 8-core RunResult payload is ~2 KB, so
#: this bounds memory per connection while leaving headroom for large
#: submit batches (cells are ~1 KB each; 16 MB ~ 16k cells per message).
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


# -- SystemConfig codec ----------------------------------------------------------
#
# ``dataclasses.asdict`` of a SystemConfig is already JSON-safe (ints,
# floats, strings, bools); the decoder rebuilds the exact nested
# dataclasses, so ``decode_config(encode_config(c)).digest() ==
# c.digest()`` — the property the cell keys rely on.


def encode_config(config: SystemConfig) -> dict:
    from dataclasses import asdict

    return asdict(config)


def decode_config(doc: dict) -> SystemConfig:
    return SystemConfig(
        num_cores=doc["num_cores"],
        core=CoreConfig(**doc["core"]),
        caches=CacheHierarchyConfig(
            l1i=CacheConfig(**doc["caches"]["l1i"]),
            l1d=CacheConfig(**doc["caches"]["l1d"]),
            l2=CacheConfig(**doc["caches"]["l2"]),
        ),
        dram_timing=DramTimingConfig(**doc["dram_timing"]),
        dram_topology=DramTopologyConfig(**doc["dram_topology"]),
        controller=ControllerConfig(**doc["controller"]),
    )


# -- CellKey / Cell codec --------------------------------------------------------


def _enc_arg(value):
    """Tag float policy-ctor arguments so they survive JSON exactly."""
    if isinstance(value, float) and not isinstance(value, bool):
        return {"__float__": value.hex()}
    return value


def _dec_arg(value):
    if isinstance(value, dict) and "__float__" in value:
        return float.fromhex(value["__float__"])
    return value


def encode_key(key: CellKey) -> dict:
    doc = key.canonical()
    doc["policy_args"] = [[k, _enc_arg(v)] for k, v in key.policy_args]
    return doc


def decode_key(doc: dict) -> CellKey:
    return CellKey(
        kind=doc["kind"],
        workload=doc["workload"],
        policy=doc["policy"],
        seed=doc["seed"],
        inst_budget=doc["inst_budget"],
        warmup=doc["warmup"],
        config_digest=doc["config_digest"],
        phase=doc["phase"],
        lookahead=doc["lookahead"],
        profile_budget=doc["profile_budget"],
        policy_args=tuple((k, _dec_arg(v)) for k, v in doc["policy_args"]),
    )


def encode_cell(cell: Cell) -> dict:
    return {
        "key": encode_key(cell.key),
        "config": encode_config(cell.config),
        "me_deps": [encode_key(k) for k in cell.me_deps],
        "me_values": (None if cell.me_values is None
                      else [float(v).hex() for v in cell.me_values]),
        "policy_ctor_args": [[k, _enc_arg(v)]
                             for k, v in cell.policy_ctor_args],
    }


def decode_cell(doc: dict) -> Cell:
    """Rebuild a cell; verifies the config round-trips to the key digest.

    The digest check catches codec drift (a config field added without
    updating the decoder) before a worker burns CPU on a cell whose
    result would be rejected as mismatched.
    """
    key = decode_key(doc["key"])
    config = decode_config(doc["config"])
    expected = machine_digest(key.kind, key.workload, config)
    if key.config_digest != expected:
        raise ProtocolError(
            f"cell {key.key_str()}: decoded config digest {expected} does "
            f"not match the key"
        )
    me_values = doc.get("me_values")
    return Cell(
        key=key,
        config=config,
        me_deps=tuple(decode_key(d) for d in doc.get("me_deps", ())),
        me_values=(None if me_values is None
                   else tuple(float.fromhex(v) for v in me_values)),
        policy_ctor_args=tuple((k, _dec_arg(v))
                               for k, v in doc.get("policy_ctor_args", ())),
    )
