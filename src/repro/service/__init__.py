"""Distributed sweep service: coordinator, workers, client.

The experiment layer reduced every figure/table simulation to a pure
``Cell -> result`` function with a canonical merge order
(:mod:`repro.experiments.cells` / :mod:`repro.experiments.parallel`).
This package promotes that contract from one process pool to a fleet:

* :mod:`repro.service.coordinator` — asyncio TCP coordinator: leases,
  heartbeats, result fan-out; its retry budget and dependency-aware
  dispatch are the :class:`~repro.experiments.board.TaskBoard` that
  also schedules the local ``--jobs N`` pool;
* :mod:`repro.service.worker` — executes cells and streams float-hex
  exact payloads back;
* :mod:`repro.service.client` — submit a cell set, receive a
  :class:`~repro.experiments.parallel.ParallelReport` that merges
  bit-identically to a serial run;
* :mod:`repro.service.protocol` — the newline-delimited JSON wire
  format.

CLI: ``repro serve`` / ``repro worker`` / ``repro submit``.
Docs: docs/DISTRIBUTED.md (protocol, semantics, security posture).
"""

from repro.service.client import (
    coordinator_status,
    request_shutdown,
    submit_cells,
    submit_cells_async,
)
from repro.service.coordinator import Coordinator
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    parse_addr,
)
from repro.service.worker import run_worker

__all__ = [
    "PROTOCOL_VERSION",
    "Coordinator",
    "ProtocolError",
    "ServiceError",
    "coordinator_status",
    "parse_addr",
    "request_shutdown",
    "run_worker",
    "submit_cells",
    "submit_cells_async",
]
