"""Unit tests for the coordinator's pure bookkeeping core
(:class:`repro.experiments.board.TaskBoard`).

The board has no sockets or clocks, so every lease / retry / expiry /
dependency rule is pinned here with explicit timestamps — the loopback
e2e tests then only need to show the coordinator drives it correctly.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.experiments.board import TaskBoard
from repro.experiments.cells import Cell, eval_cell_key, profile_cell_key
from repro.metrics.memory_efficiency import MeProfile

CFG = SystemConfig()


def _eval_cell(policy: str, mix: str = "4MEM-1", codes: str = "") -> Cell:
    key = eval_cell_key(mix, policy, 7, 300, 200, 256, CFG, 200)
    deps = tuple(profile_cell_key(c, 7, 200, CFG) for c in codes)
    return Cell(key=key, config=CFG, me_deps=deps)


def _profile_cell(code: str) -> Cell:
    return Cell(key=profile_cell_key(code, 7, 200, CFG), config=CFG)


def _me_profile(code: str, me: float) -> MeProfile:
    return MeProfile(app=f"app{code}", code=code, ipc=1.0, bw_gbps=1.0,
                     me=me, avg_read_latency=100.0)


def test_add_is_idempotent_across_jobs():
    board = TaskBoard()
    a = board.add(_eval_cell("HF-RF"))
    b = board.add(_eval_cell("HF-RF"))
    assert a is b
    assert len(board.tasks) == 1


def test_retry_budget_requeues_then_fails():
    board = TaskBoard(max_attempts=2)
    state = board.add(_eval_cell("HF-RF"))
    board.lease(state, "w1", now=0.0, duration=60.0, task_id=1)
    assert state.attempts == 1
    assert board.release(state, "boom") == "pending"  # budget left
    board.lease(state, "w2", now=1.0, duration=60.0, task_id=2)
    assert board.release(state, "boom again") == "failed"  # exhausted
    assert board.settled(state.digest)
    assert state.error == "boom again"
    assert board.counts()["failed"] == 1


def test_expiry_and_heartbeat_extension():
    board = TaskBoard()
    s1 = board.add(_eval_cell("HF-RF"))
    s2 = board.add(_eval_cell("RR"))
    board.lease(s1, "w1", now=0.0, duration=10.0, task_id=1)
    board.lease(s2, "w2", now=0.0, duration=10.0, task_id=2)
    # w1 heartbeats at t=8, w2 stays silent
    assert board.extend_leases("w1", now=8.0, duration=10.0) == 1
    expired = board.expire(now=12.0)
    assert [s.digest for s in expired] == [s2.digest]
    assert s2.status == "pending" and "expired" in s2.error
    assert s1.status == "leased"


def test_release_worker_requeues_everything_it_held():
    board = TaskBoard()
    s1 = board.add(_eval_cell("HF-RF"))
    s2 = board.add(_eval_cell("RR"))
    board.lease(s1, "w1", now=0.0, duration=60.0, task_id=1)
    board.lease(s2, "w1", now=0.0, duration=60.0, task_id=2)
    released = board.release_worker("w1")
    assert {s.digest for s in released} == {s1.digest, s2.digest}
    assert all(s.status == "pending" for s in released)
    assert board.release_worker("w1") == []  # nothing left to release


def test_me_cell_blocked_until_profiles_settle_then_resolved():
    board = TaskBoard()
    me = board.add(_eval_cell("ME-LREQ", codes="EF"))
    p_e = board.add(_profile_cell("E"))
    p_f = board.add(_profile_cell("F"))
    ready = board.ready()
    assert me not in ready and p_e in ready and p_f in ready

    board.mark_done(p_e.digest, _me_profile("E", 1.5))
    assert me not in board.ready()  # one dependency still pending
    board.mark_done(p_f.digest, _me_profile("F", 0.25))
    assert me in board.ready()

    resolved = board.resolve(me)
    assert resolved.me_values == (1.5, 0.25)
    assert me.cell.me_values is None  # board state untouched


def test_failed_or_absent_dependency_does_not_block():
    board = TaskBoard(max_attempts=1)
    # dependencies never registered on the board at all
    orphan = board.add(_eval_cell("ME-LREQ", mix="4MIX-1", codes="EF"))
    assert orphan in board.ready()
    assert board.resolve(orphan).me_values is None  # worker profiles itself

    # dependency registered but permanently failed
    me = board.add(_eval_cell("ME-LREQ", codes="E"))
    dep = board.add(_profile_cell("E"))
    board.lease(dep, "w1", now=0.0, duration=60.0, task_id=1)
    assert me not in board.ready()
    board.release(dep, "boom")
    assert dep.status == "failed"
    assert me in board.ready()
    assert board.resolve(me).me_values is None


def test_non_me_policies_never_consult_dependencies():
    board = TaskBoard()
    cell = _eval_cell("HF-RF", codes="EF")  # deps present but irrelevant
    state = board.add(cell)
    assert state in board.ready()
    assert board.resolve(state) is cell


def test_ready_is_sorted_by_canonical_key():
    board = TaskBoard()
    for policy in ("RR", "HF-RF", "LREQ"):
        board.add(_eval_cell(policy))
    keys = [s.cell.key.key_str() for s in board.ready()]
    assert keys == sorted(keys)


def test_max_attempts_must_be_positive():
    with pytest.raises(ValueError):
        TaskBoard(max_attempts=0)
