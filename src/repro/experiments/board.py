"""Task state, leases and the retry budget of every sweep scheduler.

The :class:`TaskBoard` is pure bookkeeping — no sockets, no processes,
no clocks of its own — so every lease/retry/expiry rule is unit testable
with explicit timestamps.  Both schedulers drive it: the coordinator of
:mod:`repro.service` leases its cells to remote workers, and
:func:`repro.experiments.parallel.run_cells` leases them to its process
pool (``--jobs N``) or runs them in-process.  They therefore share one
dependency rule and one retry rule.

Lifecycle of one cell::

    pending --lease()--> leased --mark_done()-----------------> done
       ^                   |
       |                   +-- release() / expire() / release_worker()
       +---- attempts < max_attempts ----+      (requeued for another worker)
                                         |
                      attempts >= max_attempts --> failed

* **Leases** — a dispatched cell is leased to one worker until a
  deadline; a ``heartbeat`` from the worker extends every lease it
  holds.  A worker that crashes (connection drop) releases its leases
  immediately; one that hangs while connected loses them at the
  deadline (:meth:`expire`).  The local pool never expires a lease.
* **Retry budget** — ``attempts`` counts leases.  A cell that fails
  (worker exception, SHA mismatch, lease expiry, disconnect, broken
  pool) goes back to ``pending`` until it has been leased
  ``max_attempts`` times, then it is ``failed`` permanently and
  reported.
* **Dependencies** — a cell with ``me_deps`` and no resolved ME vector
  is not ready until every profile cell it depends on has finished; the
  board resolves the vector at dispatch (:meth:`resolve`).  A dependency
  that is *absent from the board* or permanently failed does not block
  the cell: it ships with ``me_values=None`` and the executor profiles
  in-process (deterministic, hence still bit-identical).

Results are deterministic pure functions of the cell, so accepting a
late result from an expired lease is harmless — the board takes the
first valid payload for a cell and ignores the rest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.experiments.cells import Cell

__all__ = ["TaskState", "TaskBoard"]


@dataclass
class TaskState:
    """One cell's scheduling state on a board."""

    cell: Cell
    digest: str
    status: str = "pending"  # pending | leased | done | failed
    attempts: int = 0  # number of leases handed out so far
    worker: str | None = None  # lessee of the current or last lease
    task_id: int = 0
    lease_deadline: float = 0.0
    error: str = ""


class TaskBoard:
    """Dedup, readiness, lease and retry bookkeeping for a cell set."""

    def __init__(self, max_attempts: int = 3) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.tasks: dict[str, TaskState] = {}
        #: decoded payloads of finished cells (profile payloads feed the
        #: ME resolution of dependent eval cells)
        self.done: dict[str, object] = {}

    # -- intake ------------------------------------------------------------------

    def add(self, cell: Cell) -> TaskState:
        """Register a cell (idempotent across jobs — same digest, same
        task), returning its state."""
        digest = cell.key.digest()
        state = self.tasks.get(digest)
        if state is None:
            state = TaskState(cell=cell, digest=digest)
            self.tasks[digest] = state
        return state

    # -- readiness / dispatch ----------------------------------------------------

    def _blocked(self, state: TaskState) -> bool:
        cell = state.cell
        if cell.me_values is not None:
            return False
        for dep_key in cell.me_deps:
            dep = self.tasks.get(dep_key.digest())
            if dep is not None and dep.status in ("pending", "leased"):
                return True
        return False

    def ready(self) -> list[TaskState]:
        """Pending tasks whose dependencies are settled, in key order."""
        out = [s for s in self.tasks.values()
               if s.status == "pending" and not self._blocked(s)]
        out.sort(key=lambda s: s.cell.key.key_str())
        return out

    def resolve(self, state: TaskState) -> Cell:
        """The cell to ship: ME vector filled in from finished profiles.

        Falls back to the unresolved cell (worker profiles in-process)
        when a dependency is missing or failed.
        """
        return state.cell.with_resolved_me(
            lambda dep: self.done.get(dep.digest()))

    def lease(self, state: TaskState, worker: str, now: float,
              duration: float, task_id: int) -> None:
        state.status = "leased"
        state.worker = worker
        state.task_id = task_id
        state.attempts += 1
        state.lease_deadline = now + duration

    # -- completion / failure ----------------------------------------------------

    def mark_done(self, digest: str, payload: object) -> None:
        state = self.tasks[digest]
        state.status = "done"
        state.worker = None
        state.error = ""
        self.done[digest] = payload

    def release(self, state: TaskState, error: str) -> str:
        """One attempt failed; requeue or exhaust.  Returns new status."""
        state.error = error
        state.status = ("failed" if state.attempts >= self.max_attempts
                        else "pending")
        return state.status

    def extend_leases(self, worker: str, now: float, duration: float) -> int:
        """Heartbeat: push every lease deadline of ``worker`` out."""
        n = 0
        for state in self.tasks.values():
            if state.status == "leased" and state.worker == worker:
                state.lease_deadline = now + duration
                n += 1
        return n

    def expire(self, now: float) -> list[TaskState]:
        """Release every lease whose deadline has passed."""
        out = []
        for state in self.tasks.values():
            if state.status == "leased" and state.lease_deadline < now:
                self.release(state, f"lease expired on {state.worker!r}")
                out.append(state)
        return out

    def release_worker(self, worker: str) -> list[TaskState]:
        """A worker disconnected: release everything it held."""
        out = []
        for state in self.tasks.values():
            if state.status == "leased" and state.worker == worker:
                self.release(state, f"worker {worker!r} disconnected")
                out.append(state)
        return out

    # -- introspection -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        c = Counter(s.status for s in self.tasks.values())
        return {k: c.get(k, 0) for k in ("pending", "leased", "done",
                                         "failed")}

    def settled(self, digest: str) -> bool:
        """Done or permanently failed (nothing more will happen)."""
        state = self.tasks.get(digest)
        return state is not None and state.status in ("done", "failed")
