"""Memoization-key hygiene for :class:`ExperimentContext`.

Regression tests for the seed-list audit: two contexts that differ only
in ``seeds`` (or any other run determinant) must never exchange memo
entries.  In-memory memos are per-instance, so the sharing risk is the
*disk* cache — these tests drive two contexts through one shared cache
directory and assert isolation via the cache's own hit/miss accounting.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SystemConfig
from repro.experiments.cache import ResultCache
from repro.experiments.cells import CellKey, eval_cell_key
from repro.experiments.harness import ExperimentContext

BUDGET = 300
WARMUP = 200
PROFILE = 200


def _ctx(cache_dir, **overrides) -> ExperimentContext:
    kw = dict(inst_budget=BUDGET, warmup_insts=WARMUP,
              profile_budget=PROFILE, seeds=(1,),
              cache=ResultCache(root=cache_dir, mode="rw"))
    kw.update(overrides)
    return ExperimentContext(**kw)


def test_contexts_differing_only_in_seeds_do_not_share(tmp_path):
    a = _ctx(tmp_path, seeds=(1,))
    res_a = a.run("2MEM-1", "HF-RF", 1)
    assert a.cache.stats.writes >= 1

    b = _ctx(tmp_path, seeds=(2,))
    res_b = b.run("2MEM-1", "HF-RF", 2)
    assert b.cache.stats.hits == 0  # seed 2 must not see seed 1's entry
    assert res_b != res_a

    # the same seed DOES share — that is the point of the cache
    c = _ctx(tmp_path, seeds=(1,))
    res_c = c.run("2MEM-1", "HF-RF", 1)
    assert c.cache.stats.hits == 1 and c.cache.stats.misses == 0
    assert res_c == res_a


def test_in_memory_memo_is_per_seed():
    ctx = ExperimentContext(inst_budget=BUDGET, warmup_insts=WARMUP,
                            profile_budget=PROFILE, seeds=(1, 2))
    r1 = ctx.run("2MEM-1", "HF-RF", 1)
    r2 = ctx.run("2MEM-1", "HF-RF", 2)
    assert r1 != r2
    assert ctx.run("2MEM-1", "HF-RF", 1) is r1  # memoised per seed
    assert ctx.run("2MEM-1", "HF-RF", 2) is r2


def test_serial_table2_writes_and_reads_the_cache(tmp_path):
    """Table 2's profiles go through the same read-through as every
    other cell, so a serial run leaves a resumable trail."""
    from repro.experiments.table2 import run_table2

    a = _ctx(tmp_path, cache=ResultCache(root=tmp_path, mode="write"))
    rows = run_table2(a)
    assert a.cache.stats.writes == 26
    assert len(list(tmp_path.glob("*.json"))) == 26

    b = _ctx(tmp_path)
    assert run_table2(b) == rows
    assert b.cache.stats.hits == 26 and b.cache.stats.misses == 0


def test_profile_budget_isolates_me_family_entries(tmp_path):
    """ME-family results depend on the profiling budget; changing it must
    invalidate exactly those entries and nothing else."""
    a = _ctx(tmp_path, profile_budget=200)
    a.run("2MEM-1", "ME-LREQ", 1)
    a.run("2MEM-1", "HF-RF", 1)

    b = _ctx(tmp_path, profile_budget=250)
    b.run("2MEM-1", "HF-RF", 1)
    assert b.cache.stats.hits == 1  # HF-RF ignores the profiling budget
    b.run("2MEM-1", "ME-LREQ", 1)
    hits_after = b.cache.stats.hits
    assert hits_after == 1  # the ME-LREQ eval entry did NOT carry over


def test_me_policies_run_only_on_the_contexts_machine():
    """ME is profiled on the context's machine, so a policy that reads it
    refuses another machine before anything simulates; an equal copy of
    the baseline is the same machine, and the same cell."""
    ctx = ExperimentContext(inst_budget=BUDGET, warmup_insts=WARMUP,
                            profile_budget=PROFILE, seeds=(1,))

    def page_policy(mode):
        return dataclasses.replace(ctx.config, controller=dataclasses.replace(
            ctx.config.controller, page_policy=mode))

    with pytest.raises(ValueError, match="ME-LREQ"):
        ctx.run("4MEM-1", "ME-LREQ", 1, config=page_policy("open"))
    assert ctx.memo == {}
    closed = page_policy("closed")
    assert closed is not ctx.config
    assert (ctx.run("4MEM-1", "ME-LREQ", 1, config=closed)
            is ctx.run("4MEM-1", "ME-LREQ", 1))


def test_eval_key_covers_every_determinant():
    cfg = SystemConfig()
    base = eval_cell_key("4MEM-1", "ME-LREQ", 1, 300, 200, 256, cfg, 150)
    variants = [
        eval_cell_key("4MEM-2", "ME-LREQ", 1, 300, 200, 256, cfg, 150),
        eval_cell_key("4MEM-1", "ME", 1, 300, 200, 256, cfg, 150),
        eval_cell_key("4MEM-1", "ME-LREQ", 2, 300, 200, 256, cfg, 150),
        eval_cell_key("4MEM-1", "ME-LREQ", 1, 301, 200, 256, cfg, 150),
        eval_cell_key("4MEM-1", "ME-LREQ", 1, 300, 201, 256, cfg, 150),
        eval_cell_key("4MEM-1", "ME-LREQ", 1, 300, 200, 128, cfg, 150),
        eval_cell_key("4MEM-1", "ME-LREQ", 1, 300, 200, 256, cfg, 151),
        eval_cell_key("4MEM-1", "ME-LREQ", 1, 300, 200, 256,
                      cfg.with_cores(8), 150),
    ]
    digests = {base.digest()} | {v.digest() for v in variants}
    assert len(digests) == 1 + len(variants)


def test_non_me_policies_ignore_profile_budget_in_key():
    cfg = SystemConfig()
    a = eval_cell_key("4MEM-1", "HF-RF", 1, 300, 200, 256, cfg, 150)
    b = eval_cell_key("4MEM-1", "HF-RF", 1, 300, 200, 256, cfg, 999)
    assert a.digest() == b.digest()  # result cannot depend on profiling


def test_cellkey_digest_sensitive_to_every_field():
    base = CellKey(kind="eval", workload="4MEM-1", policy="HF-RF", seed=1,
                   inst_budget=300, warmup=200, config_digest="abc",
                   phase="eval", lookahead=256, profile_budget=0,
                   policy_args=())
    seen = {base.digest()}
    for change in (
        {"kind": "custom"}, {"workload": "4MEM-2"}, {"policy": "RR"},
        {"seed": 2}, {"inst_budget": 301}, {"warmup": 201},
        {"config_digest": "abd"}, {"phase": "profile"},
        {"lookahead": 128}, {"profile_budget": 100},
        {"policy_args": (("table_bits", 6),)},
    ):
        d = dataclasses.replace(base, **change).digest()
        assert d not in seen, change
        seen.add(d)
